package codec

import (
	"bytes"
	"compress/flate"
	"compress/lzw"
	"fmt"
	"io"
)

// flateCodec wraps the standard library DEFLATE implementation. It gives
// the registry a production-hardened member of the entropy-coded band to
// cross-check the from-scratch lzh family against.
type flateCodec struct {
	level int // 1..9
}

func (c flateCodec) name() string { return fmt.Sprintf("flate-%d", c.level) }

func (c flateCodec) compressBlock(dst, src []byte) ([]byte, error) {
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, c.level)
	if err != nil {
		return dst, fmt.Errorf("flate: %w", err)
	}
	if _, err := w.Write(src); err != nil {
		return dst, fmt.Errorf("flate: %w", err)
	}
	if err := w.Close(); err != nil {
		return dst, fmt.Errorf("flate: %w", err)
	}
	return append(dst, buf.Bytes()...), nil
}

func (c flateCodec) decompressBlock(_ *Scratch, dst, src []byte, origLen int) ([]byte, error) {
	r := flate.NewReader(bytes.NewReader(src))
	defer r.Close()
	out, err := readExactly(r, origLen)
	if err != nil {
		return dst, fmt.Errorf("%w: flate: %v", ErrCorrupt, err)
	}
	return append(dst, out...), nil
}

// lzwCodec wraps the standard library LZW (the algorithm behind TIFF's
// LZW mode, one of the paper's format-specific examples in §II-C).
type lzwCodec struct{}

func (lzwCodec) name() string { return "lzw" }

func (lzwCodec) compressBlock(dst, src []byte) ([]byte, error) {
	var buf bytes.Buffer
	w := lzw.NewWriter(&buf, lzw.LSB, 8)
	if _, err := w.Write(src); err != nil {
		return dst, fmt.Errorf("lzw: %w", err)
	}
	if err := w.Close(); err != nil {
		return dst, fmt.Errorf("lzw: %w", err)
	}
	return append(dst, buf.Bytes()...), nil
}

func (lzwCodec) decompressBlock(_ *Scratch, dst, src []byte, origLen int) ([]byte, error) {
	r := lzw.NewReader(bytes.NewReader(src), lzw.LSB, 8)
	defer r.Close()
	out, err := readExactly(r, origLen)
	if err != nil {
		return dst, fmt.Errorf("%w: lzw: %v", ErrCorrupt, err)
	}
	return append(dst, out...), nil
}

// readExactly reads exactly n bytes and verifies the stream ends there.
func readExactly(r io.Reader, n int) ([]byte, error) {
	out := make([]byte, n)
	if _, err := io.ReadFull(r, out); err != nil {
		return nil, err
	}
	var one [1]byte
	if m, _ := r.Read(one[:]); m != 0 {
		return nil, fmt.Errorf("trailing data after %d bytes", n)
	}
	return out, nil
}
