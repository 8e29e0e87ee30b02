package codec

import (
	"fmt"
	"sync"
)

// lzfTables pools the encoder hash tables; entries hold position+1 and
// stale entries are validated against the current input, so tables are
// reused without clearing (see lz4Tables).
var lzfTables = sync.Pool{
	New: func() interface{} { return new([1 << lzfHashLog]int32) },
}

// lzfCodec is a LibLZF-style byte-oriented LZ77 compressor: an 8 KiB
// window, 3-byte hashing, and a branch-light decoder. It represents the
// very fast / modest ratio end of Fig. 7 (the paper's lzf sits there for
// the Tokamak dataset, Table VII(b)).
//
// Stream format (LibLZF compatible framing):
//
//	ctrl < 0x20:  literal run of ctrl+1 bytes
//	ctrl >= 0x20: match; length = (ctrl>>5)+2, extended by one byte when
//	              ctrl>>5 == 7; offset-1 = (ctrl&0x1f)<<8 | next byte
type lzfCodec struct {
	// level selects how hard the encoder tries: number of hash probes.
	level int
}

const (
	lzfWindow   = 1 << 13 // 8 KiB max offset
	lzfHashLog  = 14
	lzfMinMatch = 3
	lzfMaxMatch = 2 + 7 + 255 // 264
	lzfMaxLit   = 32
)

func (c lzfCodec) name() string { return fmt.Sprintf("lzf-%d", c.level) }

func lzfHash(v uint32) uint32 {
	return (v * 2654435761) >> (32 - lzfHashLog)
}

func load24(b []byte, i int) uint32 {
	return uint32(b[i]) | uint32(b[i+1])<<8 | uint32(b[i+2])<<16
}

func (c lzfCodec) compressBlock(dst, src []byte) ([]byte, error) {
	if len(src) < lzfMinMatch+1 {
		return lzfEmitLit(dst, src), nil
	}
	table := lzfTables.Get().(*[1 << lzfHashLog]int32)
	defer lzfTables.Put(table)
	i := 0
	litStart := 0
	limit := len(src) - lzfMinMatch
	for i < limit {
		h := lzfHash(load24(src, i))
		cand := int(table[h]) - 1 // pos+1 encoding; stale entries validated below
		table[h] = int32(i + 1)
		if cand >= 0 && cand < i && i-cand <= lzfWindow && cand+lzfMinMatch <= len(src) && load24(src, cand) == load24(src, i) {
			// Extend the match forward.
			mlen := lzfMinMatch
			maxLen := len(src) - i
			if maxLen > lzfMaxMatch {
				maxLen = lzfMaxMatch
			}
			for mlen < maxLen && cand+mlen < len(src) && src[cand+mlen] == src[i+mlen] {
				mlen++
			}
			dst = lzfEmitLit(dst, src[litStart:i])
			dst = lzfEmitMatch(dst, i-cand, mlen)
			// Insert hashes inside the match so later data can reference it.
			step := 1
			if c.level < 2 {
				step = 4 // fast level skips intra-match insertion work
			}
			end := i + mlen
			for j := i + 1; j < end-lzfMinMatch && j < limit; j += step {
				table[lzfHash(load24(src, j))] = int32(j + 1)
			}
			i = end
			litStart = i
		} else {
			i++
		}
	}
	dst = lzfEmitLit(dst, src[litStart:])
	return dst, nil
}

func lzfEmitLit(dst, lit []byte) []byte {
	for len(lit) > 0 {
		n := len(lit)
		if n > lzfMaxLit {
			n = lzfMaxLit
		}
		dst = append(dst, byte(n-1))
		dst = append(dst, lit[:n]...)
		lit = lit[n:]
	}
	return dst
}

func lzfEmitMatch(dst []byte, off, mlen int) []byte {
	off-- // stored biased by one
	l := mlen - 2
	if l < 7 {
		dst = append(dst, byte(l<<5)|byte(off>>8), byte(off))
	} else {
		dst = append(dst, byte(7<<5)|byte(off>>8), byte(l-7), byte(off))
	}
	return dst
}

func (c lzfCodec) decompressBlock(_ *Scratch, dst, src []byte, origLen int) ([]byte, error) {
	base := len(dst)
	want := base + origLen
	i := 0
	for i < len(src) {
		ctrl := int(src[i])
		i++
		if ctrl < 0x20 {
			n := ctrl + 1
			if i+n > len(src) || len(dst)+n > want {
				return dst, fmt.Errorf("%w: lzf literal overrun", ErrCorrupt)
			}
			dst = append(dst, src[i:i+n]...)
			i += n
			continue
		}
		mlen := (ctrl >> 5) + 2
		if mlen == 9 { // ctrl>>5 == 7: extended length
			if i >= len(src) {
				return dst, fmt.Errorf("%w: lzf truncated length", ErrCorrupt)
			}
			mlen += int(src[i])
			i++
		}
		if i >= len(src) {
			return dst, fmt.Errorf("%w: lzf truncated offset", ErrCorrupt)
		}
		off := (ctrl&0x1f)<<8 | int(src[i])
		i++
		ref := len(dst) - off - 1
		if ref < base || len(dst)+mlen > want {
			return dst, fmt.Errorf("%w: lzf bad match (off=%d len=%d)", ErrCorrupt, off+1, mlen)
		}
		dst = appendMatch(dst, off+1, mlen, want)
	}
	if len(dst) != want {
		return dst, fmt.Errorf("%w: lzf decoded %d bytes, want %d", ErrCorrupt, len(dst)-base, origLen)
	}
	return dst, nil
}
