package codec

import (
	"container/heap"
	"fmt"
	"sort"
)

// This file implements canonical Huffman coding over arbitrary alphabets.
// Two codecs build on it: huffCodec (order-0 bytes, below) and lzdCodec
// (the deflate-class dual-table LZ codec in lzd.go).

const huffMaxBits = 12

// huffNode is a heap entry for Huffman tree construction.
type huffNode struct {
	freq        int
	sym         int // -1 for internal nodes
	left, right int // indices into the node arena
}

type huffHeap struct {
	arena []huffNode
	order []int
}

func (h *huffHeap) Len() int { return len(h.order) }
func (h *huffHeap) Less(i, j int) bool {
	a, b := h.arena[h.order[i]], h.arena[h.order[j]]
	if a.freq != b.freq {
		return a.freq < b.freq
	}
	return a.sym < b.sym // deterministic tie-break
}
func (h *huffHeap) Swap(i, j int)      { h.order[i], h.order[j] = h.order[j], h.order[i] }
func (h *huffHeap) Push(x interface{}) { h.order = append(h.order, x.(int)) }
func (h *huffHeap) Pop() interface{} {
	n := len(h.order)
	v := h.order[n-1]
	h.order = h.order[:n-1]
	return v
}

// huffLengths computes code lengths limited to maxBits for an arbitrary
// alphabet. Overlong codes are handled by repeatedly flattening the
// frequency distribution and rebuilding, which is simple and always
// terminates (all-equal frequencies give ceil(log2(n)) bits).
func huffLengths(freq []int, maxBits int) []byte {
	f := append([]int(nil), freq...)
	for {
		lengths, ok := huffTryLengths(f, maxBits)
		if ok {
			return lengths
		}
		for i := range f {
			if f[i] > 1 {
				f[i] = f[i]/2 + 1
			}
		}
	}
}

func huffTryLengths(freq []int, maxBits int) ([]byte, bool) {
	lengths := make([]byte, len(freq))
	h := &huffHeap{}
	for s, f := range freq {
		if f > 0 {
			h.arena = append(h.arena, huffNode{freq: f, sym: s, left: -1, right: -1})
			h.order = append(h.order, len(h.arena)-1)
		}
	}
	switch len(h.order) {
	case 0:
		return lengths, true
	case 1:
		lengths[h.arena[h.order[0]].sym] = 1
		return lengths, true
	}
	heap.Init(h)
	for h.Len() > 1 {
		a := heap.Pop(h).(int)
		b := heap.Pop(h).(int)
		h.arena = append(h.arena, huffNode{
			freq: h.arena[a].freq + h.arena[b].freq,
			sym:  -1, left: a, right: b,
		})
		heap.Push(h, len(h.arena)-1)
	}
	root := h.order[0]
	// Iterative depth assignment.
	type frame struct{ node, depth int }
	stack := []frame{{root, 0}}
	maxSeen := 0
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := h.arena[f.node]
		if n.sym >= 0 {
			d := f.depth
			if d == 0 {
				d = 1
			}
			lengths[n.sym] = byte(d)
			if d > maxSeen {
				maxSeen = d
			}
			continue
		}
		stack = append(stack, frame{n.left, f.depth + 1}, frame{n.right, f.depth + 1})
	}
	return lengths, maxSeen <= maxBits
}

// huffCanonicalCodes assigns canonical codes (sorted by length, then
// symbol) for the given lengths.
func huffCanonicalCodes(lengths []byte) []uint32 {
	codes := make([]uint32, len(lengths))
	type se struct {
		sym int
		len byte
	}
	var syms []se
	for s, l := range lengths {
		if l > 0 {
			syms = append(syms, se{s, l})
		}
	}
	sort.Slice(syms, func(i, j int) bool {
		if syms[i].len != syms[j].len {
			return syms[i].len < syms[j].len
		}
		return syms[i].sym < syms[j].sym
	})
	code := uint32(0)
	prevLen := byte(0)
	for _, e := range syms {
		code <<= uint(e.len - prevLen)
		prevLen = e.len
		codes[e.sym] = code
		code++
	}
	return codes
}

// huffEntry is a one-level decode table entry.
type huffEntry struct {
	sym  uint16
	bits byte // 0 marks an invalid code point
}

// huffCanonicalCodesInto assigns the same canonical codes as
// huffCanonicalCodes into s.codes, replacing the sort.Slice ordering
// with an allocation-free counting sort by (length, symbol).
func huffCanonicalCodesInto(s *Scratch, lengths []byte) []uint32 {
	codes := s.codes[:len(lengths)]
	clear(codes) // zero-length symbols read code 0, as in huffCanonicalCodes
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

// huffBuildTable builds a single-level lookup table of width maxSeen bits
// for an arbitrary alphabet into *tbl (one of s.table / s.table2),
// reusing its storage across blocks.
func huffBuildTable(s *Scratch, tbl *[]huffEntry, lengths []byte) ([]huffEntry, uint, error) {
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
		clear(table)
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

// packNibbles stores code lengths two per byte (lengths <= 15).
func packNibbles(dst []byte, lengths []byte) []byte {
	for i := 0; i < len(lengths); i += 2 {
		b := lengths[i] << 4
		if i+1 < len(lengths) {
			b |= lengths[i+1]
		}
		dst = append(dst, b)
	}
	return dst
}

// readNibbles reads len(out) code lengths packed two per byte from src
// into out and returns the rest of src.
func readNibbles(out []byte, src []byte) ([]byte, error) {
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

// huffCodec is order-0 canonical Huffman coding over bytes. On its own it
// is a weak compressor (no repeats are removed), but it doubles as the
// entropy stage of lzh, placing both in the "entropy-coded" decode-cost
// band of Fig. 7.
//
// Container: 128 header bytes holding the 256 code lengths as nibbles,
// followed by the MSB-first bit stream. The symbol count comes from the
// outer uvarint header.
type huffCodec struct{}

func (huffCodec) name() string { return "huff" }

func (huffCodec) compressBlock(dst, src []byte) ([]byte, error) {
	if len(src) == 0 {
		return dst, nil
	}
	freq := make([]int, 256)
	for _, b := range src {
		freq[b]++
	}
	lengths := huffLengths(freq, huffMaxBits)
	codes := huffCanonicalCodes(lengths)
	dst = packNibbles(dst, lengths)
	w := bitWriter{dst: dst}
	for _, b := range src {
		w.writeBits(codes[b], uint(lengths[b]))
	}
	return w.finish(), nil
}

func (huffCodec) decompressBlock(s *Scratch, dst, src []byte, origLen int) ([]byte, error) {
	if origLen == 0 {
		return dst, nil
	}
	payload, err := readNibbles(s.lens[:256], src)
	if err != nil {
		return dst, err
	}
	table, maxBits, err := huffBuildTable(s, &s.table, s.lens[:256])
	if err != nil {
		return dst, err
	}
	r := bitReader{src: payload}
	for i := 0; i < origLen; i++ {
		e := table[r.peek(maxBits)]
		if e.bits == 0 {
			return dst, fmt.Errorf("%w: huffman invalid code", ErrCorrupt)
		}
		r.consume(uint(e.bits))
		dst = append(dst, byte(e.sym))
	}
	return dst, nil
}
