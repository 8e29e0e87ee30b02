package codec

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
)

// lz4Tables pools the 256 KiB hash tables of the greedy encoder. Entries
// hold position+1 and are validated against the current input (candidate
// must precede the cursor and its 4 bytes must match), so tables are
// reused dirty — no 256 KiB clear per call, which matters at FanStore's
// per-file compression granularity.
var lz4Tables = sync.Pool{
	New: func() interface{} { return new([1 << lz4HashLog]int32) },
}

// This file implements the LZ4 block format from scratch, with three
// encoder strategies sharing one decoder:
//
//   - lz4Fast: greedy single-probe hashing with an acceleration factor
//     (acceleration N skips faster through incompressible regions),
//     reproducing the lz4/lz4fast family.
//   - lz4HC: hash-chain search with a per-level attempt budget,
//     reproducing the lz4hc levels.
//   - lzsse: hash-chain search with a large minimum match, reproducing
//     the LZSSE2/4/8 family (whose wide minimum matches trade ratio on
//     small repeats for extremely cheap decoding).
//
// Block format (LZ4 compatible): a sequence is a token byte whose high
// nibble is the literal length (15 = extended by 255-run bytes), the
// literals, a 2-byte little-endian match offset (1..65535), and the low
// nibble match length minus 4 (15 = extended). The final sequence is
// literals-only.

const (
	lz4MinMatch = 4
	lz4MaxDist  = 65535
	lz4HashLog  = 16
)

// lz4EmitSeq appends one LZ4 sequence. mlen==0 emits a literals-only
// terminator sequence.
func lz4EmitSeq(dst, lit []byte, off, mlen int) []byte {
	litLen := len(lit)
	var token byte
	if litLen >= 15 {
		token = 0xf0
	} else {
		token = byte(litLen) << 4
	}
	ml := 0
	if mlen > 0 {
		ml = mlen - lz4MinMatch
		if ml >= 15 {
			token |= 0x0f
		} else {
			token |= byte(ml)
		}
	}
	dst = append(dst, token)
	if litLen >= 15 {
		dst = lz4EmitLen(dst, litLen-15)
	}
	dst = append(dst, lit...)
	if mlen > 0 {
		dst = append(dst, byte(off), byte(off>>8))
		if ml >= 15 {
			dst = lz4EmitLen(dst, ml-15)
		}
	}
	return dst
}

func lz4EmitLen(dst []byte, n int) []byte {
	for n >= 255 {
		dst = append(dst, 255)
		n -= 255
	}
	return append(dst, byte(n))
}

// lz4MaxExpansion bounds a block's output per input byte: a literal
// byte yields one output byte, and every byte of a sequence's match part
// (offset, extension) yields at most 255. lz4Decompress rejects a larger
// declared length before it allocates anything.
const lz4MaxExpansion = 255

// lz4Decompress decodes an LZ4 block, appending exactly origLen bytes.
// It writes by index into dst[:len(dst)+origLen], growing dst once when
// its capacity is short, and never writes past that length. A literal
// run of at most 16 bytes is copied as two 8-byte words when both
// cursors have 16 bytes of room; the bytes past the run are overwritten
// by the next sequence. Matches go through copyMatch, except, away from
// both ends of the block, those of at most 18 bytes at offsets 1, 2, 4
// and 8 or more: three fixed words in line.
func lz4Decompress(dst, src []byte, origLen int) ([]byte, error) {
	if uint64(origLen) > lz4MaxExpansion*uint64(len(src))+16 {
		return dst, fmt.Errorf("%w: lz4 declares %d bytes from a %d-byte block", ErrCorrupt, origLen, len(src))
	}
	base := len(dst)
	want := base + origLen
	dst = slices.Grow(dst, origLen)
	out := dst[:want]
	d, i := base, 0
	for {
		if i >= len(src) {
			if d == want {
				return out, nil
			}
			return dst, fmt.Errorf("%w: lz4 truncated (have %d of %d bytes)", ErrCorrupt, d-base, origLen)
		}
		token := src[i]
		i++
		litLen := int(token >> 4)
		// The fast zone: a literal of at most 14 bytes, 31 block bytes
		// after the token and 48 output bytes left. The literal's two
		// words read in[0:16] and its offset ends by in[16]; they write
		// out[d:d+16], and a match of at most 18 bytes after it is three
		// words ending by d+14+24 = d+38 < d+48. So "literal overrun",
		// "truncated offset" and the literals-only end cannot happen here
		// and are not checked; the zero-offset, length and bad-match
		// checks are the loop body's, with the same texts. At offsets of 8
		// or more each word's source is written before it is read;
		// offsets 1, 2 and 4 repeat within one word. The fixed slices let
		// the compiler drop the words' bounds checks (`make bce`).
		if litLen < 15 && i+31 <= len(src) && d+48 <= want {
			in, o := src[i:i+31:i+31], out[d:d+48:d+48]
			store64(o, 0, load64(in, 0))
			store64(o, 8, load64(in, 8))
			off := int(in[litLen]) | int(in[litLen+1])<<8
			i += litLen + 2
			if off == 0 {
				return dst, fmt.Errorf("%w: lz4 zero offset", ErrCorrupt)
			}
			mlen := int(token&0x0f) + lz4MinMatch
			if mlen == 15+lz4MinMatch {
				var err error
				if mlen, i, err = lz4ReadLen(src, i, mlen); err != nil {
					return dst, err
				}
			}
			d += litLen
			if d-off < base || d+mlen > want {
				return dst, fmt.Errorf("%w: lz4 bad match (off=%d len=%d)", ErrCorrupt, off, mlen)
			}
			m := o[litLen : litLen+24 : litLen+24]
			switch {
			case mlen <= 18 && off >= 8:
				r := out[d-off : d-off+24 : d-off+24]
				store64(m, 0, load64(r, 0))
				store64(m, 8, load64(r, 8))
				store64(m, 16, load64(r, 16))
			case mlen <= 18 && (off == 1 || off == 2 || off == 4):
				v := lz4Period(out, d-off, off)
				store64(m, 0, v)
				store64(m, 8, v)
				store64(m, 16, v)
			default:
				copyMatch(out, d, off, mlen)
			}
			d += mlen
			continue
		}
		if litLen == 15 {
			var err error
			litLen, i, err = lz4ReadLen(src, i, litLen)
			if err != nil {
				return dst, err
			}
		}
		if i+litLen > len(src) || d+litLen > want {
			return dst, fmt.Errorf("%w: lz4 literal overrun", ErrCorrupt)
		}
		if litLen <= 16 && i+16 <= len(src) && d+16 <= want {
			store64(out, d, load64(src, i))
			store64(out, d+8, load64(src, i+8))
		} else {
			copy(out[d:], src[i:i+litLen])
		}
		d += litLen
		i += litLen
		if i == len(src) {
			// Literals-only final sequence.
			if d != want {
				return dst, fmt.Errorf("%w: lz4 decoded %d bytes, want %d", ErrCorrupt, d-base, origLen)
			}
			return out, nil
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
		if d-off < base || d+mlen > want {
			return dst, fmt.Errorf("%w: lz4 bad match (off=%d len=%d)", ErrCorrupt, off, mlen)
		}
		copyMatch(out, d, off, mlen)
		d += mlen
	}
}

// copyMatch writes an LZ77 match into out[d:d+mlen]: the bytes that
// start off bytes back (1 <= off <= d). When off < mlen the match
// overlaps its own output and repeats with period off. With 16 bytes of
// room past the match it copies 8-byte words, which may write up to 15
// bytes past d+mlen: offsets 1, 2 and 4 broadcast their period into one
// word; other offsets below 8 lay the first 8 bytes one at a time, then
// copy words from a whole number of periods back, at least 8 bytes.
// Without that room, a copy whose source doubles each round does it.
func copyMatch(out []byte, d, off, mlen int) {
	ref, end := d-off, d+mlen
	if end+16 > len(out) {
		for d < end {
			d += copy(out[d:end], out[ref:d])
		}
		return
	}
	switch {
	case off >= 8 && mlen <= 16:
		store64(out, d, load64(out, ref))
		store64(out, d+8, load64(out, ref+8))
	case off >= 8 && off >= mlen:
		copy(out[d:end], out[ref:ref+mlen])
	case off >= 8:
		for ; d < end; d, ref = d+8, ref+8 {
			store64(out, d, load64(out, ref))
		}
	case off == 1 || off == 2 || off == 4:
		v := lz4Period(out, ref, off)
		for ; d < end; d += 8 {
			store64(out, d, v)
		}
	default:
		for j := 0; j < 8; j++ {
			out[d+j] = out[ref+j]
		}
		stride := off * ((8 + off - 1) / off)
		for d += 8; d < end; d += 8 {
			store64(out, d, load64(out, d-stride))
		}
	}
}

// lz4Period broadcasts the off bytes at out[ref:] (off 1, 2 or 4) into
// one word that repeats them with period off.
func lz4Period(out []byte, ref, off int) uint64 {
	switch off {
	case 1:
		return uint64(out[ref]) * 0x0101010101010101
	case 2:
		return (uint64(out[ref]) | uint64(out[ref+1])<<8) * 0x0001000100010001
	}
	return uint64(load32(out, ref)) * 0x0000000100000001
}

func load64(b []byte, i int) uint64 { return binary.LittleEndian.Uint64(b[i : i+8]) }

func store64(b []byte, i int, v uint64) { binary.LittleEndian.PutUint64(b[i:i+8], v) }

// appendMatch is copyMatch for the decoders that append (lzf, lzd,
// lzr): it grows dst by mlen and copies the match into the new bytes.
// The wide copies use dst's spare capacity as their room, up to want,
// the length the whole block decodes to.
func appendMatch(dst []byte, off, mlen, want int) []byte {
	d := len(dst)
	dst = slices.Grow(dst, mlen)
	copyMatch(dst[:min(cap(dst), want)], d, off, mlen)
	return dst[:d+mlen]
}

func lz4ReadLen(src []byte, i, n int) (int, int, error) {
	for {
		if i >= len(src) {
			return 0, i, fmt.Errorf("%w: lz4 truncated length", ErrCorrupt)
		}
		b := src[i]
		i++
		n += int(b)
		if b != 255 {
			return n, i, nil
		}
	}
}

// lz4Fast is the greedy LZ4 encoder with an acceleration factor.
type lz4Fast struct {
	accel int // >=1; higher skips through unmatchable data faster
}

func (c lz4Fast) name() string {
	if c.accel == 1 {
		return "lz4"
	}
	return fmt.Sprintf("lz4fast-%d", c.accel)
}

func (c lz4Fast) compressBlock(dst, src []byte) ([]byte, error) {
	if len(src) < lz4MinMatch+1 {
		return lz4EmitSeq(dst, src, 0, 0), nil
	}
	table := lz4Tables.Get().(*[1 << lz4HashLog]int32)
	defer lz4Tables.Put(table)
	i := 0
	litStart := 0
	limit := len(src) - lz4MinMatch
	step := 1
	searchTrigger := c.accel << 6
	tries := searchTrigger
	for i < limit {
		h := cmHash(load32(src, i))
		cand := int(table[h]) - 1 // entries are pos+1; stale ones are validated below
		table[h] = int32(i + 1)
		if cand >= 0 && cand < i && i-cand <= lz4MaxDist && cand+lz4MinMatch <= len(src) && load32(src, cand) == load32(src, i) {
			mlen := lz4MinMatch + matchLen(src, cand+lz4MinMatch, i+lz4MinMatch, len(src)-i-lz4MinMatch)
			dst = lz4EmitSeq(dst, src[litStart:i], i-cand, mlen)
			i += mlen
			litStart = i
			step = 1
			tries = searchTrigger
			if i < limit {
				table[cmHash(load32(src, i-2))] = int32(i - 1)
			}
		} else {
			i += step
			tries--
			if tries <= 0 { // accelerate through incompressible data
				step++
				tries = searchTrigger
			}
		}
	}
	dst = lz4EmitSeq(dst, src[litStart:], 0, 0)
	return dst, nil
}

func (c lz4Fast) decompressBlock(_ *Scratch, dst, src []byte, origLen int) ([]byte, error) {
	return lz4Decompress(dst, src, origLen)
}

// lz4HC is the hash-chain LZ4 encoder; level sets the chain attempt budget.
type lz4HC struct {
	level int // 1..12
}

func (c lz4HC) name() string { return fmt.Sprintf("lz4hc-%d", c.level) }

func (c lz4HC) compressBlock(dst, src []byte) ([]byte, error) {
	return lzChainCompress(dst, src, lz4MinMatch, 1<<uint(c.level/2+2))
}

func (c lz4HC) decompressBlock(_ *Scratch, dst, src []byte, origLen int) ([]byte, error) {
	return lz4Decompress(dst, src, origLen)
}

// lzsse mimics the LZSSE family: LZ4 block format, but matches shorter
// than minMatch bytes are never emitted, which keeps the decode loop's
// copies long and cheap.
type lzsse struct {
	minMatch int // 4, 8 or 16, mirroring LZSSE2/4/8 variants
	level    int // chain effort
}

func (c lzsse) name() string { return fmt.Sprintf("lzsse%d-%d", c.minMatch, c.level) }

func (c lzsse) compressBlock(dst, src []byte) ([]byte, error) {
	return lzChainCompress(dst, src, c.minMatch, 1<<uint(c.level+1))
}

func (c lzsse) decompressBlock(_ *Scratch, dst, src []byte, origLen int) ([]byte, error) {
	return lz4Decompress(dst, src, origLen)
}

// lzChainCompress is the shared hash-chain encoder emitting LZ4 block
// format with a configurable minimum match and attempt budget.
func lzChainCompress(dst, src []byte, minMatch, attempts int) ([]byte, error) {
	if len(src) < minMatch+1 || len(src) < 5 {
		return lz4EmitSeq(dst, src, 0, 0), nil
	}
	m := newChainMatcher(src, lz4MaxDist)
	i := 0
	litStart := 0
	limit := len(src) - lz4MinMatch
	for i < limit {
		dist, mlen := m.best(i, minMatch, attempts, 0)
		if mlen == 0 {
			i++
			continue
		}
		dst = lz4EmitSeq(dst, src[litStart:i], dist, mlen)
		i += mlen
		litStart = i
	}
	dst = lz4EmitSeq(dst, src[litStart:], 0, 0)
	return dst, nil
}
