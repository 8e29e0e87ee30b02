package codec

import (
	"math"
	"math/bits"
	"sync"
)

// matchTable is the hash table every hash encoder borrows for one call:
// lz4 and lz4fast index head directly, lzf its first 1<<lzfHashLog
// entries with its own hash, and the chain matcher (lz4hc, lzsse, lzh,
// lzd, lzr) keeps its chain links in prev beside it.
//
// A call never clears the table. It takes base = stamp, stores base+pos
// for position pos and reads any entry below base as empty; the stamp
// then moves past every value the call can store. So a table that any
// earlier input left dirty behaves as a fresh one, and each encoder's
// output is a function of its input alone. The table is cleared only
// when the stamp would pass math.MaxInt32: for 4 KiB files, once in
// about 500 000 calls.
type matchTable struct {
	head  [1 << cmHashLog]int32
	prev  []int32 // chain links, as long as the longest input yet
	stamp int32   // the next call's base
}

// matchTables is the one pool of tables. It is a pointer so that a test
// can hand out tables of its own; library code only gets and puts.
var matchTables = &sync.Pool{New: func() any { return &matchTable{stamp: 1} }}

// getMatchTable borrows a table for an input of n bytes and returns the
// base this call's entries are stored from. Put the table back into
// matchTables when the call returns.
func getMatchTable(n int) (*matchTable, int32) {
	t := matchTables.Get().(*matchTable)
	if int64(t.stamp)+int64(n)+1 > math.MaxInt32 {
		clear(t.head[:])
		t.stamp = 1
	}
	base := t.stamp
	t.stamp += int32(n) + 1
	return t, base
}

// chainMatcher is a hash-chain LZ77 match finder shared by the
// higher-effort encoders (lz4hc, lzsse, lzh, lzd, lzr). It indexes 4-byte
// hashes and walks collision chains up to a configurable attempt budget,
// which is how the registry turns one algorithm into a family of
// effort/ratio option levels.
type chainMatcher struct {
	src     []byte
	t       *matchTable // head holds base+pos; prev[pos] the chain's previous position, or < 0
	base    int32
	maxDist int
	nextPos int // first position not yet inserted
}

const cmHashLog = 16

func cmHash(v uint32) uint32 {
	return (v * 2654435761) >> (32 - cmHashLog)
}

func load32(b []byte, i int) uint32 {
	return uint32(b[i]) | uint32(b[i+1])<<8 | uint32(b[i+2])<<16 | uint32(b[i+3])<<24
}

// newChainMatcher prepares a matcher over src with matches limited to
// maxDist back-references (0 means unlimited within the block). It
// borrows a table; release returns it.
func newChainMatcher(src []byte, maxDist int) *chainMatcher {
	t, base := getMatchTable(len(src))
	if len(t.prev) < len(src) {
		t.prev = make([]int32, len(src))
	}
	return &chainMatcher{src: src, t: t, base: base, maxDist: maxDist}
}

// release hands the matcher's table back to the pool; m is dead after.
func (m *chainMatcher) release() { matchTables.Put(m.t) }

// insertTo indexes every position in [nextPos, pos). prev[p] is written
// here before best can read it, so prev needs no clearing between calls.
func (m *chainMatcher) insertTo(pos int) {
	limit := len(m.src) - 4
	if pos > limit {
		pos = limit
	}
	for ; m.nextPos < pos; m.nextPos++ {
		h := cmHash(load32(m.src, m.nextPos))
		m.t.prev[m.nextPos] = m.t.head[h] - m.base
		m.t.head[h] = m.base + int32(m.nextPos)
	}
}

// best returns the longest match of at least minMatch bytes ending the
// search after maxAttempts chain links. A zero length means no match.
// maxLen caps the returned length (callers with bounded length fields
// pass their format limit; 0 means unbounded).
func (m *chainMatcher) best(pos, minMatch, maxAttempts, maxLen int) (dist, mlen int) {
	src := m.src
	if pos+4 > len(src) {
		return 0, 0
	}
	m.insertTo(pos)
	limit := len(src) - pos
	if maxLen > 0 && limit > maxLen {
		limit = maxLen
	}
	if limit < minMatch {
		return 0, 0
	}
	cand := m.t.head[cmHash(load32(src, pos))] - m.base
	bestLen := minMatch - 1
	for attempts := 0; cand >= 0 && attempts < maxAttempts; attempts, cand = attempts+1, m.t.prev[cand] {
		c := int(cand)
		if c >= pos {
			continue
		}
		d := pos - c
		if m.maxDist > 0 && d > m.maxDist {
			break // chain is ordered by position: all further candidates are older
		}
		// Quick reject: check the byte just past the current best.
		if c+bestLen >= len(src) || src[c+bestLen] != src[pos+bestLen] {
			continue
		}
		l := matchLen(src, c, pos, limit)
		if l > bestLen {
			bestLen = l
			dist = d
			if l == limit {
				break
			}
		}
	}
	if bestLen < minMatch {
		return 0, 0
	}
	return dist, bestLen
}

// matchLen counts equal bytes between src[a:] and src[b:], up to limit,
// 8 bytes at a time while a whole word is left. Callers have a < b and
// b+limit <= len(src), so both words are in range.
func matchLen(src []byte, a, b, limit int) int {
	n := 0
	for ; n+8 <= limit; n += 8 {
		if x := load64(src, a+n) ^ load64(src, b+n); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
	}
	for n < limit && src[a+n] == src[b+n] {
		n++
	}
	return n
}
