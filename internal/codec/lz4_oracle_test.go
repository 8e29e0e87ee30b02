package codec

import "fmt"

// lz4DecompressOracle is the byte-at-a-time LZ4 block decoder that
// lz4Decompress replaced, kept unchanged as the differential tests'
// reference: it appends per sequence and copies overlapping matches one
// byte at a time, so its output is correct by inspection.
func lz4DecompressOracle(dst, src []byte, origLen int) ([]byte, error) {
	base := len(dst)
	want := base + origLen
	i := 0
	for {
		if i >= len(src) {
			if len(dst) == want {
				return dst, nil
			}
			return dst, fmt.Errorf("%w: lz4 truncated (have %d of %d bytes)", ErrCorrupt, len(dst)-base, origLen)
		}
		token := src[i]
		i++
		litLen := int(token >> 4)
		if litLen == 15 {
			var err error
			litLen, i, err = lz4ReadLen(src, i, litLen)
			if err != nil {
				return dst, err
			}
		}
		if i+litLen > len(src) || len(dst)+litLen > want {
			return dst, fmt.Errorf("%w: lz4 literal overrun", ErrCorrupt)
		}
		dst = append(dst, src[i:i+litLen]...)
		i += litLen
		if i == len(src) {
			// Literals-only final sequence.
			if len(dst) != want {
				return dst, fmt.Errorf("%w: lz4 decoded %d bytes, want %d", ErrCorrupt, len(dst)-base, origLen)
			}
			return dst, nil
		}
		if i+2 > len(src) {
			return dst, fmt.Errorf("%w: lz4 truncated offset", ErrCorrupt)
		}
		off := int(src[i]) | int(src[i+1])<<8
		i += 2
		if off == 0 {
			return dst, fmt.Errorf("%w: lz4 zero offset", ErrCorrupt)
		}
		mlen := int(token & 0x0f)
		if mlen == 15 {
			var err error
			mlen, i, err = lz4ReadLen(src, i, mlen)
			if err != nil {
				return dst, err
			}
		}
		mlen += lz4MinMatch
		ref := len(dst) - off
		if ref < base || len(dst)+mlen > want {
			return dst, fmt.Errorf("%w: lz4 bad match (off=%d len=%d)", ErrCorrupt, off, mlen)
		}
		if off >= mlen {
			dst = append(dst, dst[ref:ref+mlen]...)
		} else {
			for j := 0; j < mlen; j++ { // overlapping copy
				dst = append(dst, dst[ref+j])
			}
		}
	}
}
