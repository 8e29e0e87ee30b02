package codec

import "fmt"

// storeCodec is the memcpy baseline: the compressed form is the input.
// It anchors the decompression-throughput axis of Fig. 7 (the paper
// compares every compressor's decode cost against memcpy).
type storeCodec struct{}

func (storeCodec) name() string { return "store" }

func (storeCodec) compressBlock(dst, src []byte) ([]byte, error) {
	return append(dst, src...), nil
}

func (storeCodec) decompressBlock(_ *Scratch, dst, src []byte, origLen int) ([]byte, error) {
	if len(src) != origLen {
		return dst, fmt.Errorf("%w: store payload length %d != declared %d", ErrCorrupt, len(src), origLen)
	}
	return append(dst, src...), nil
}

// rleCodec is byte-level run-length encoding. Runs of three or more equal
// bytes become a (marker, count, byte) triple; literals are copied in
// counted chunks.
//
// Format: a control byte c. If c < 0x80, the next c+1 bytes are literals.
// Otherwise a run of length (c-0x80)+3 of the single following byte.
type rleCodec struct{}

const (
	rleMaxLit = 0x80       // max literal chunk (control 0x00..0x7f => 1..128 bytes)
	rleMaxRun = 0x7f + 3   // max run length (control 0x80..0xff => 3..130 bytes)
	rleRunBit = byte(0x80) // control high bit marks a run
)

func (rleCodec) name() string { return "rle" }

func (rleCodec) compressBlock(dst, src []byte) ([]byte, error) {
	i := 0
	litStart := 0
	flushLit := func(end int) {
		for litStart < end {
			n := end - litStart
			if n > rleMaxLit {
				n = rleMaxLit
			}
			dst = append(dst, byte(n-1))
			dst = append(dst, src[litStart:litStart+n]...)
			litStart += n
		}
	}
	for i < len(src) {
		b := src[i]
		run := 1
		for i+run < len(src) && src[i+run] == b && run < rleMaxRun {
			run++
		}
		if run >= 3 {
			flushLit(i)
			dst = append(dst, rleRunBit|byte(run-3), b)
			i += run
			litStart = i
		} else {
			i += run
		}
	}
	flushLit(len(src))
	return dst, nil
}

func (rleCodec) decompressBlock(_ *Scratch, dst, src []byte, origLen int) ([]byte, error) {
	want := len(dst) + origLen
	i := 0
	for i < len(src) {
		c := src[i]
		i++
		if c&rleRunBit == 0 {
			n := int(c) + 1
			if i+n > len(src) || len(dst)+n > want {
				return dst, fmt.Errorf("%w: rle literal overrun", ErrCorrupt)
			}
			dst = append(dst, src[i:i+n]...)
			i += n
		} else {
			if i >= len(src) {
				return dst, fmt.Errorf("%w: rle run missing byte", ErrCorrupt)
			}
			n := int(c&^rleRunBit) + 3
			if len(dst)+n > want {
				return dst, fmt.Errorf("%w: rle run overrun", ErrCorrupt)
			}
			b := src[i]
			i++
			for j := 0; j < n; j++ {
				dst = append(dst, b)
			}
		}
	}
	if len(dst) != want {
		return dst, fmt.Errorf("%w: rle decoded %d bytes, want %d", ErrCorrupt, len(dst)-(want-origLen), origLen)
	}
	return dst, nil
}
