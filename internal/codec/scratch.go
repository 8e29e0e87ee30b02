package codec

import "fmt"

// Decode scratch: reusable per-goroutine decoder state. The decompression
// hot path (fanstore's openers and decode pool) calls the entropy-coded
// codecs thousands of times per epoch; without scratch every block allocates a
// fresh Huffman decode table, a range-coder model, and filter
// intermediates. A Scratch owns all of that state so a long-lived decode
// worker allocates only when a table or buffer must grow. The public
// Codec interface is unchanged — DecompressScratch is an additive entry
// point that falls back to Codec.Decompress for codecs with nothing to
// reuse (the byte-oriented LZ family decodes allocation-free already).

// Scratch holds reusable decoder state: Huffman code-length arrays and
// decode tables, the lzr probability model and range-decoder state, and
// a filter/lzh intermediate buffer. A Scratch must not be used by two
// goroutines at once; the decode pool keeps one per worker, and an
// opener borrows one from a free list for the length of one decode.
type Scratch struct {
	// Huffman: code lengths for the largest alphabet (lzd's 286-symbol
	// literal/length table; huff uses the first 256, lzd's distance
	// table the second array), canonical codes, and the counting-sort
	// symbol order that replaces sort.Slice on the decode side.
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

	// tmp is the intermediate buffer of the filter and lzh stages
	// (delta/shuffle pre-image, lzh's LZ block).
	tmp []byte
}

// NewScratch allocates empty decoder scratch state; tables and buffers
// grow on first use and are reused afterwards.
func NewScratch() *Scratch { return new(Scratch) }

// takeTmp detaches the scratch intermediate buffer, grown to capacity n,
// so nested users (a filter wrapping lzh) each see a private buffer.
func (s *Scratch) takeTmp(n int) []byte {
	b := s.tmp
	s.tmp = nil
	if cap(b) < n {
		b = make([]byte, 0, n)
	}
	return b[:0]
}

// giveTmp returns a buffer taken with takeTmp, keeping the larger of the
// two when nesting handed back another one first.
func (s *Scratch) giveTmp(b []byte) {
	if cap(b) > cap(s.tmp) {
		s.tmp = b
	}
}

// scratchBlockCodec is implemented by block codecs whose decode side has
// reusable state worth threading a Scratch through.
type scratchBlockCodec interface {
	blockCodec
	// decompressBlockScratch is decompressBlock with per-call state drawn
	// from s instead of allocated.
	decompressBlockScratch(s *Scratch, dst, src []byte, origLen int) ([]byte, error)
}

// DecompressScratch appends the decompressed payload of src to dst like
// c.Decompress, drawing per-call decoder state (Huffman tables, range
// coder model, filter intermediates) from s. A nil s, or a codec with no
// reusable state, falls back to c.Decompress — the result is identical
// either way.
func DecompressScratch(c Codec, s *Scratch, dst, src []byte) ([]byte, error) {
	if s != nil {
		if w, ok := c.(wrapped); ok {
			if sbc, ok := w.bc.(scratchBlockCodec); ok {
				origLen, payload, err := splitHeader(src)
				if err != nil {
					return dst, err
				}
				return sbc.decompressBlockScratch(s, dst, payload, origLen)
			}
		}
	}
	return c.Decompress(dst, src)
}

// innerDecompressScratch routes a wrapped stage (a filter's inner codec,
// lzh's entropy stage) through the scratch path when it has one.
func innerDecompressScratch(s *Scratch, bc blockCodec, dst, src []byte, origLen int) ([]byte, error) {
	if sbc, ok := bc.(scratchBlockCodec); ok {
		return sbc.decompressBlockScratch(s, dst, src, origLen)
	}
	return bc.decompressBlock(dst, src, origLen)
}

// unpackNibblesInto is unpackNibbles writing into a caller-owned array:
// it reads len(out) code lengths packed two per byte from src and
// returns the remaining payload.
func unpackNibblesInto(out []byte, src []byte) ([]byte, error) {
	n := len(out)
	nbytes := (n + 1) / 2
	if len(src) < nbytes {
		return nil, fmt.Errorf("%w: huffman header truncated", ErrCorrupt)
	}
	for i := 0; i < n; i++ {
		b := src[i/2]
		if i%2 == 0 {
			out[i] = b >> 4
		} else {
			out[i] = b & 0x0f
		}
	}
	return src[nbytes:], nil
}

// huffCanonicalCodesInto assigns the same canonical codes as
// huffCanonicalCodes into s.codes, replacing the sort.Slice ordering
// with an allocation-free counting sort by (length, symbol).
func huffCanonicalCodesInto(s *Scratch, lengths []byte) []uint32 {
	codes := s.codes[:len(lengths)]
	clear(codes) // zero-length symbols must read code 0, as in the make() path
	var count [16]int
	for _, l := range lengths {
		count[l]++
	}
	var next [16]int
	pos := 0
	for l := 1; l <= 15; l++ {
		next[l] = pos
		pos += count[l]
	}
	order := s.symOrder[:pos]
	for sym, l := range lengths {
		if l > 0 {
			order[next[l]] = uint16(sym)
			next[l]++
		}
	}
	code := uint32(0)
	prevLen := byte(0)
	for _, sym := range order {
		l := lengths[sym]
		code <<= uint(l - prevLen)
		prevLen = l
		codes[sym] = code
		code++
	}
	return codes
}

// huffDecodeTableInto is huffDecodeTable building into *tbl (one of
// s.table / s.table2), reusing its storage across blocks.
func huffDecodeTableInto(s *Scratch, tbl *[]huffEntry, lengths []byte) ([]huffEntry, uint, error) {
	maxSeen := byte(0)
	nsyms := 0
	for _, l := range lengths {
		if l > 15 {
			return nil, 0, fmt.Errorf("%w: huffman code length %d", ErrCorrupt, l)
		}
		if l > maxSeen {
			maxSeen = l
		}
		if l > 0 {
			nsyms++
		}
	}
	if nsyms == 0 {
		return nil, 0, fmt.Errorf("%w: huffman empty code table", ErrCorrupt)
	}
	codes := huffCanonicalCodesInto(s, lengths)
	size := 1 << maxSeen
	table := *tbl
	if cap(table) < size {
		table = make([]huffEntry, size)
	} else {
		table = table[:size]
		for i := range table {
			table[i] = huffEntry{}
		}
	}
	*tbl = table
	for sym, l := range lengths {
		if l == 0 {
			continue
		}
		prefix := codes[sym] << (uint(maxSeen) - uint(l))
		n := 1 << (uint(maxSeen) - uint(l))
		for i := 0; i < n; i++ {
			idx := prefix | uint32(i)
			if int(idx) >= len(table) || table[idx].bits != 0 {
				return nil, 0, fmt.Errorf("%w: huffman overfull code table", ErrCorrupt)
			}
			table[idx] = huffEntry{sym: uint16(sym), bits: l}
		}
	}
	return table, uint(maxSeen), nil
}
