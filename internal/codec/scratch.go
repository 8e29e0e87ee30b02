package codec

import "sync"

// Decode scratch: the state an entropy-coded decode needs (Huffman decode
// tables, the lzr model and range decoder, the intermediates of the
// filters and of lzh), kept between decodes so that a warm decode
// allocates nothing beyond growing dst. Every decode runs through one:
// DecompressScratch with the caller's, Codec.Decompress with one borrowed
// from this package's free list. The byte-oriented LZ family and the
// stdlib wrappers ignore it.

// Scratch holds reusable decoder state. A Scratch must not be used by two
// goroutines at once.
type Scratch struct {
	// Huffman: code lengths for the largest alphabet (lzd's 286-symbol
	// literal/length table; huff uses the first 256, lzd's distance
	// table the second array), canonical codes, and the counting-sort
	// symbol order.
	lens     [lzdNumLitLen]byte
	distLens [lzdNumDist]byte
	codes    [lzdNumLitLen]uint32
	symOrder [lzdNumLitLen]uint16
	// table is the primary decode table; table2 is lzd's distance table
	// (both alphabets are live at once there).
	table  []huffEntry
	table2 []huffEntry

	// lzr: the adaptive probability model and range-decoder state.
	model lzrModel
	rc    rcDecoder

	// tmp is a filter's intermediate (the delta/shuffle pre-image) and lz
	// is lzh's LZ block: a filter over lzh holds both at once.
	tmp []byte
	lz  []byte
}

// NewScratch allocates empty decoder scratch state; tables and buffers
// grow on first use and are reused afterwards.
func NewScratch() *Scratch { return new(Scratch) }

// scratches is the free list a decode without a caller-owned Scratch
// borrows from for its length.
var scratches = sync.Pool{New: func() any { return NewScratch() }}

// DecompressScratch appends the decompressed payload of src to dst like
// c.Decompress, drawing per-call decoder state from s. A nil s borrows one
// from the free list, which is what c.Decompress does.
func DecompressScratch(c Codec, s *Scratch, dst, src []byte) ([]byte, error) {
	if w, ok := c.(wrapped); ok {
		return w.decompress(s, dst, src)
	}
	return c.Decompress(dst, src)
}

// grow returns the buffer in slot *b emptied, with room for n bytes.
func grow(b *[]byte, n int) []byte {
	if cap(*b) < n {
		*b = make([]byte, 0, n)
	}
	return (*b)[:0]
}
