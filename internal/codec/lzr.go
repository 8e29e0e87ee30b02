package codec

import "fmt"

// lzrCodec is an LZMA-class compressor: hash-chain LZ77 parsing with all
// output — literal/match flags, literal bytes, match lengths, and
// distance slots — coded through the adaptive binary range coder. It
// reaches the highest compression ratios in the registry and pays for it
// with a bit-serial decode loop, reproducing the paper's lzma/xz corner
// of Fig. 7 and Table IV.
type lzrCodec struct {
	level int // 1..9: chain attempt budget 4<<level
}

const (
	lzrMinMatch = 3
	lzrMaxLen   = lzrMinMatch + 16 + 255 // length model ceiling (274)
	lzrLitCtx   = 8                      // literal contexts: prev byte >> 5
)

// lzrModel holds every adaptive probability used by the stream. Every
// block starts from a fresh (or freshly reset) model, which keeps codecs
// stateless and concurrency-safe.
type lzrModel struct {
	isMatch   [2]prob // context: previous op was a match
	isRep     prob    // match reuses the previous distance (LZMA's rep0)
	lit       [lzrLitCtx][256]prob
	lenCh1    prob
	lenCh2    prob
	lenLow    [8]prob
	lenMid    [8]prob
	lenHigh   [256]prob
	distSlot  [64]prob
	prevMatch int
	prevByte  byte
	repDist   int // last match distance; 0 means none yet
}

func newLzrModel() *lzrModel {
	m := &lzrModel{}
	m.reset()
	return m
}

// reset restores every probability to equiprobable and clears the
// parse state, so one model value serves block after block (the decode
// scratch reuses it instead of allocating the ~5 KiB struct per block).
func (m *lzrModel) reset() {
	m.isMatch[0], m.isMatch[1] = probInit, probInit
	m.isRep = probInit
	for i := range m.lit {
		for j := range m.lit[i] {
			m.lit[i][j] = probInit
		}
	}
	m.lenCh1, m.lenCh2 = probInit, probInit
	for i := range m.lenLow {
		m.lenLow[i], m.lenMid[i] = probInit, probInit
	}
	for i := range m.lenHigh {
		m.lenHigh[i] = probInit
	}
	for i := range m.distSlot {
		m.distSlot[i] = probInit
	}
	m.prevMatch = 0
	m.prevByte = 0
	m.repDist = 0
}

func (c lzrCodec) name() string { return fmt.Sprintf("lzr-%d", c.level) }

func (c lzrCodec) compressBlock(dst, src []byte) ([]byte, error) {
	e := newRcEncoder(dst)
	m := newLzrModel()
	var matcher *chainMatcher
	if len(src) >= lzrMinMatch+1 {
		matcher = newChainMatcher(src, 0)
	}
	attempts := 4 << uint(c.level)
	i := 0
	for i < len(src) {
		var dist, mlen int
		if matcher != nil && i+4 <= len(src) {
			dist, mlen = matcher.best(i, lzrMinMatch, attempts, lzrMaxLen)
		}
		// Prefer a repeat-distance match when it is nearly as long: it
		// costs a single bit instead of a distance slot (LZMA's rep0).
		if m.repDist > 0 && m.repDist <= i {
			maxRep := len(src) - i
			if maxRep > lzrMaxLen {
				maxRep = lzrMaxLen
			}
			repLen := matchLen(src, i-m.repDist, i, maxRep)
			if repLen >= lzrMinMatch && repLen+2 >= mlen {
				dist, mlen = m.repDist, repLen
			}
		}
		if mlen >= lzrMinMatch {
			e.encodeBit(&m.isMatch[m.prevMatch], 1)
			if dist == m.repDist {
				e.encodeBit(&m.isRep, 1)
				c.encodeLen(e, m, mlen)
			} else {
				e.encodeBit(&m.isRep, 0)
				c.encodeLen(e, m, mlen)
				c.encodeDist(e, m, dist)
				m.repDist = dist
			}
			m.prevMatch = 1
			i += mlen
			m.prevByte = src[i-1]
		} else {
			e.encodeBit(&m.isMatch[m.prevMatch], 0)
			b := src[i]
			e.encodeTree(m.lit[m.prevByte>>5][:], uint32(b), 8)
			m.prevMatch = 0
			m.prevByte = b
			i++
		}
	}
	return e.finish(), nil
}

func (c lzrCodec) encodeLen(e *rcEncoder, m *lzrModel, mlen int) {
	v := mlen - lzrMinMatch
	switch {
	case v < 8:
		e.encodeBit(&m.lenCh1, 0)
		e.encodeTree(m.lenLow[:], uint32(v), 3)
	case v < 16:
		e.encodeBit(&m.lenCh1, 1)
		e.encodeBit(&m.lenCh2, 0)
		e.encodeTree(m.lenMid[:], uint32(v-8), 3)
	default:
		e.encodeBit(&m.lenCh1, 1)
		e.encodeBit(&m.lenCh2, 1)
		e.encodeTree(m.lenHigh[:], uint32(v-16), 8)
	}
}

func (c lzrCodec) encodeDist(e *rcEncoder, m *lzrModel, dist int) {
	d := uint32(dist - 1)
	slot := distSlot(d)
	e.encodeTree(m.distSlot[:], slot, 6)
	if slot >= 4 {
		nd := uint(slot/2 - 1)
		base := (2 | slot&1) << nd
		e.encodeDirect(d-base, nd)
	}
}

// distSlot maps a distance (minus one) to its LZMA-style slot:
// slots 0-3 are the literal distances, then two slots per power of two.
func distSlot(d uint32) uint32 {
	if d < 4 {
		return d
	}
	nb := uint32(31)
	for d>>nb == 0 {
		nb--
	}
	return nb*2 + (d>>(nb-1))&1
}

func (c lzrCodec) decompressBlock(s *Scratch, dst, src []byte, origLen int) ([]byte, error) {
	d, m := &s.rc, &s.model
	if err := d.init(src); err != nil {
		return dst, err
	}
	m.reset()
	base := len(dst)
	want := base + origLen
	for len(dst) < want {
		if d.decodeBit(&m.isMatch[m.prevMatch]) == 0 {
			b := byte(d.decodeTree(m.lit[m.prevByte>>5][:], 8))
			dst = append(dst, b)
			m.prevByte = b
			m.prevMatch = 0
			continue
		}
		var dist int
		if d.decodeBit(&m.isRep) == 1 {
			if m.repDist == 0 {
				return dst, fmt.Errorf("%w: lzr rep match before any match", ErrCorrupt)
			}
			dist = m.repDist
		} else {
			dist = -1
		}
		mlen := c.decodeLen(d, m)
		if dist < 0 {
			var err error
			dist, err = c.decodeDist(d, m)
			if err != nil {
				return dst, err
			}
			m.repDist = dist
		}
		ref := len(dst) - dist
		if ref < base || len(dst)+mlen > want {
			return dst, fmt.Errorf("%w: lzr bad match (dist=%d len=%d)", ErrCorrupt, dist, mlen)
		}
		dst = appendMatch(dst, dist, mlen, want)
		m.prevByte = dst[len(dst)-1]
		m.prevMatch = 1
	}
	if d.overrun() {
		return dst, fmt.Errorf("%w: lzr stream truncated", ErrCorrupt)
	}
	return dst, nil
}

func (c lzrCodec) decodeLen(d *rcDecoder, m *lzrModel) int {
	if d.decodeBit(&m.lenCh1) == 0 {
		return lzrMinMatch + int(d.decodeTree(m.lenLow[:], 3))
	}
	if d.decodeBit(&m.lenCh2) == 0 {
		return lzrMinMatch + 8 + int(d.decodeTree(m.lenMid[:], 3))
	}
	return lzrMinMatch + 16 + int(d.decodeTree(m.lenHigh[:], 8))
}

func (c lzrCodec) decodeDist(d *rcDecoder, m *lzrModel) (int, error) {
	slot := d.decodeTree(m.distSlot[:], 6)
	if slot < 4 {
		return int(slot) + 1, nil
	}
	nd := uint(slot/2 - 1)
	if nd > 30 {
		return 0, fmt.Errorf("%w: lzr distance slot %d", ErrCorrupt, slot)
	}
	base := (2 | slot&1) << nd
	return int(base+d.decodeDirect(nd)) + 1, nil
}
