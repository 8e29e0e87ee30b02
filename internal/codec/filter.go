package codec

import "fmt"

// deltaFilter is a byte-delta pre-filter composed with an inner codec.
// Subtracting each byte from the one stride bytes earlier turns slowly
// varying numeric arrays (16-bit microscopy pixels, float32 time series —
// the paper's EM and Tokamak datasets) into long runs of small values that
// the LZ stages then compress much harder. Filters are how the registry's
// configuration count multiplies, mirroring lzbench's option sweeps.
type deltaFilter struct {
	stride int
	inner  blockCodec
}

func (f deltaFilter) name() string {
	return fmt.Sprintf("delta%d+%s", f.stride, f.inner.name())
}

func (f deltaFilter) compressBlock(dst, src []byte) ([]byte, error) {
	tmp := make([]byte, len(src))
	copy(tmp, src[:min(f.stride, len(src))])
	for i := f.stride; i < len(src); i++ {
		tmp[i] = src[i] - src[i-f.stride]
	}
	return f.inner.compressBlock(dst, tmp)
}

func (f deltaFilter) decompressBlock(s *Scratch, dst, src []byte, origLen int) ([]byte, error) {
	tmp, err := f.inner.decompressBlock(s, grow(&s.tmp, origLen), src, origLen)
	if err != nil {
		return dst, err
	}
	for i := f.stride; i < len(tmp); i++ {
		tmp[i] += tmp[i-f.stride]
	}
	return append(dst, tmp...), nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// shuffleFilter is an HDF5-style byte-shuffle pre-filter composed with an
// inner codec: for stride-k element data it groups byte 0 of every
// element, then byte 1, and so on. High bytes of smooth 16/32-bit arrays
// are nearly constant, so after shuffling they form long runs the LZ
// stages compress far better — the standard trick for the paper's EM and
// FITS imagery in HPC containers.
type shuffleFilter struct {
	stride int
	inner  blockCodec
}

func (f shuffleFilter) name() string {
	return fmt.Sprintf("shuffle%d+%s", f.stride, f.inner.name())
}

func (f shuffleFilter) compressBlock(dst, src []byte) ([]byte, error) {
	return f.inner.compressBlock(dst, shuffleBytesTo(make([]byte, 0, len(src)), src, f.stride, false))
}

func (f shuffleFilter) decompressBlock(s *Scratch, dst, src []byte, origLen int) ([]byte, error) {
	tmp, err := f.inner.decompressBlock(s, grow(&s.tmp, origLen), src, origLen)
	if err != nil {
		return dst, err
	}
	return shuffleBytesTo(dst, tmp, f.stride, true), nil
}

// shuffleBytesTo appends the (un)shuffled src to dst, writing straight
// into dst's storage. Only the length-aligned prefix is (un)shuffled; the
// tail (len % stride bytes) is copied through untouched so any input
// length round trips.
func shuffleBytesTo(dst, src []byte, stride int, inverse bool) []byte {
	base := len(dst)
	dst = append(dst, src...) // reserves space and copies the unshuffled tail
	out := dst[base:]
	n := len(src) / stride * stride
	rows := n / stride
	for i := 0; i < rows; i++ {
		for b := 0; b < stride; b++ {
			if inverse {
				out[i*stride+b] = src[b*rows+i]
			} else {
				out[b*rows+i] = src[i*stride+b]
			}
		}
	}
	return dst
}
