package codec

import "fmt"

// lzdCodec is a full deflate-class compressor: hash-chain LZ77 with lazy
// matching, coded with two per-block canonical Huffman tables — one over
// literals + match-length codes, one over distance codes — with extra
// bits for length/distance residuals, exactly the structure of DEFLATE
// (and of the paper's zlib/zling/brotli candidates). It out-compresses
// lzh (whose entropy stage is order-0 over an LZ4-format byte stream)
// because lengths and distances get dedicated, tighter models.
//
// Block container:
//
//	litLen table: 286 nibble-packed code lengths
//	dist   table:  30 nibble-packed code lengths
//	MSB-first bit stream of symbols; 256 is end-of-block
type lzdCodec struct {
	level int // 1..9: chain attempts 2<<level, lazy matching from level 4
}

// Deflate-standard symbol space.
const (
	lzdEOB        = 256
	lzdNumLitLen  = 286
	lzdNumDist    = 30
	lzdMinMatch   = 3
	lzdMaxMatch   = 258
	lzdMaxDist    = 32768
	lzdTableBytes = (lzdNumLitLen+1)/2 + lzdNumDist/2
)

// Length code table (RFC 1951 §3.2.5): code 257+i covers lengths
// [lzdLenBase[i], lzdLenBase[i]+2^lzdLenExtra[i]).
var (
	lzdLenBase = [29]int{
		3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31,
		35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258,
	}
	lzdLenExtra = [29]byte{
		0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2,
		3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
	}
	lzdDistBase = [30]int{
		1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193,
		257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145,
		8193, 12289, 16385, 24577,
	}
	lzdDistExtra = [30]byte{
		0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6,
		7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13,
	}
)

// lzdLenCode maps a match length to (code index, extra bits value).
func lzdLenCode(length int) (code int, extra uint32) {
	// Linear scan over 29 entries is fine at encode granularity; the
	// decode side is table-driven.
	for i := len(lzdLenBase) - 1; i >= 0; i-- {
		if length >= lzdLenBase[i] {
			return i, uint32(length - lzdLenBase[i])
		}
	}
	return 0, 0
}

func lzdDistCode(dist int) (code int, extra uint32) {
	for i := len(lzdDistBase) - 1; i >= 0; i-- {
		if dist >= lzdDistBase[i] {
			return i, uint32(dist - lzdDistBase[i])
		}
	}
	return 0, 0
}

func (c lzdCodec) name() string { return fmt.Sprintf("lzd-%d", c.level) }

// lzdToken is one parsed LZ77 event.
type lzdToken struct {
	lit        byte
	dist, mlen int // mlen == 0 marks a literal
}

func (c lzdCodec) compressBlock(dst, src []byte) ([]byte, error) {
	tokens := c.parse(src)

	// Histogram both alphabets.
	litFreq := make([]int, lzdNumLitLen)
	distFreq := make([]int, lzdNumDist)
	litFreq[lzdEOB]++
	for _, t := range tokens {
		if t.mlen == 0 {
			litFreq[t.lit]++
		} else {
			lc, _ := lzdLenCode(t.mlen)
			litFreq[257+lc]++
			dc, _ := lzdDistCode(t.dist)
			distFreq[dc]++
		}
	}
	litLengths := huffLengths(litFreq, huffMaxBits)
	distLengths := huffLengths(distFreq, huffMaxBits)
	litCodes := huffCanonicalCodes(litLengths)
	distCodes := huffCanonicalCodes(distLengths)

	dst = packNibbles(dst, litLengths)
	dst = packNibbles(dst, distLengths)
	w := bitWriter{dst: dst}
	for _, t := range tokens {
		if t.mlen == 0 {
			w.writeBits(litCodes[t.lit], uint(litLengths[t.lit]))
			continue
		}
		lc, lx := lzdLenCode(t.mlen)
		w.writeBits(litCodes[257+lc], uint(litLengths[257+lc]))
		if e := lzdLenExtra[lc]; e > 0 {
			w.writeBits(lx, uint(e))
		}
		dc, dx := lzdDistCode(t.dist)
		w.writeBits(distCodes[dc], uint(distLengths[dc]))
		if e := lzdDistExtra[dc]; e > 0 {
			w.writeBits(dx, uint(e))
		}
	}
	w.writeBits(litCodes[lzdEOB], uint(litLengths[lzdEOB]))
	return w.finish(), nil
}

// parse runs the LZ77 tokenizer: greedy hash-chain matching with one-step
// lazy evaluation at higher levels (emit a literal when the next position
// holds a longer match, as zlib does).
func (c lzdCodec) parse(src []byte) []lzdToken {
	tokens := make([]lzdToken, 0, len(src)/3+8)
	if len(src) < lzdMinMatch+1 {
		for _, b := range src {
			tokens = append(tokens, lzdToken{lit: b})
		}
		return tokens
	}
	m := newChainMatcher(src, lzdMaxDist)
	attempts := 2 << uint(c.level)
	lazy := c.level >= 4
	i := 0
	limit := len(src) - lz4MinMatch
	for i < len(src) {
		if i >= limit {
			tokens = append(tokens, lzdToken{lit: src[i]})
			i++
			continue
		}
		dist, mlen := m.best(i, lzdMinMatch, attempts, lzdMaxMatch)
		if mlen == 0 {
			tokens = append(tokens, lzdToken{lit: src[i]})
			i++
			continue
		}
		if lazy && i+1 < limit {
			d2, l2 := m.best(i+1, lzdMinMatch, attempts, lzdMaxMatch)
			if l2 > mlen+1 {
				// Deferring wins: emit the literal, take the later match.
				tokens = append(tokens, lzdToken{lit: src[i]})
				i++
				dist, mlen = d2, l2
			}
		}
		tokens = append(tokens, lzdToken{dist: dist, mlen: mlen})
		i += mlen
	}
	return tokens
}

func (c lzdCodec) decompressBlock(s *Scratch, dst, src []byte, origLen int) ([]byte, error) {
	// Both alphabets live in the scratch at once: lengths in the two
	// fixed arrays, decode tables in the two reusable table slots.
	rest, err := readNibbles(s.lens[:lzdNumLitLen], src)
	if err != nil {
		return dst, fmt.Errorf("lzd: %w", err)
	}
	payload, err := readNibbles(s.distLens[:], rest)
	if err != nil {
		return dst, fmt.Errorf("lzd: %w", err)
	}
	litTable, litBits, err := huffBuildTable(s, &s.table, s.lens[:lzdNumLitLen])
	if err != nil {
		return dst, fmt.Errorf("lzd: %w", err)
	}
	var distTable []huffEntry
	var distBits uint
	if anyNonZero(s.distLens[:]) {
		if distTable, distBits, err = huffBuildTable(s, &s.table2, s.distLens[:]); err != nil {
			return dst, fmt.Errorf("lzd: %w", err)
		}
	}
	base := len(dst)
	want := base + origLen
	r := bitReader{src: payload}
	for {
		e := litTable[r.peek(litBits)]
		if e.bits == 0 {
			return dst, fmt.Errorf("%w: lzd invalid literal code", ErrCorrupt)
		}
		r.consume(uint(e.bits))
		sym := int(e.sym)
		switch {
		case sym < 256:
			if len(dst) >= want {
				return dst, fmt.Errorf("%w: lzd literal overrun", ErrCorrupt)
			}
			dst = append(dst, byte(sym))
		case sym == lzdEOB:
			if len(dst) != want {
				return dst, fmt.Errorf("%w: lzd decoded %d bytes, want %d", ErrCorrupt, len(dst)-base, origLen)
			}
			return dst, nil
		default:
			lc := sym - 257
			if lc >= len(lzdLenBase) {
				return dst, fmt.Errorf("%w: lzd length code %d", ErrCorrupt, sym)
			}
			mlen := lzdLenBase[lc] + int(r.readBits(uint(lzdLenExtra[lc])))
			if distTable == nil {
				return dst, fmt.Errorf("%w: lzd match without distance table", ErrCorrupt)
			}
			de := distTable[r.peek(distBits)]
			if de.bits == 0 {
				return dst, fmt.Errorf("%w: lzd invalid distance code", ErrCorrupt)
			}
			r.consume(uint(de.bits))
			dc := int(de.sym)
			if dc >= len(lzdDistBase) {
				return dst, fmt.Errorf("%w: lzd distance code %d", ErrCorrupt, dc)
			}
			dist := lzdDistBase[dc] + int(r.readBits(uint(lzdDistExtra[dc])))
			ref := len(dst) - dist
			if ref < base || len(dst)+mlen > want {
				return dst, fmt.Errorf("%w: lzd bad match (dist=%d len=%d)", ErrCorrupt, dist, mlen)
			}
			dst = appendMatch(dst, dist, mlen, want)
		}
	}
}

func anyNonZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return true
		}
	}
	return false
}
