package codec

import "fmt"

// Binary range coder with adaptive probabilities, in the style used by
// LZMA. This is the entropy engine of lzr (the paper's lzma/xz band):
// every bit passes through an arithmetic coder with model updates, which
// is exactly why that band decodes 2-3 orders of magnitude slower than
// byte-oriented LZ (Fig. 7) while reaching the highest ratios (Table IV).

// prob is an 11-bit adaptive probability of a zero bit.
type prob = uint16

const (
	probBits  = 11
	probInit  = 1 << (probBits - 1) // 1024: equiprobable
	probMove  = 5                   // adaptation rate
	rcTopBits = 24
)

// rcEncoder is the range encoder.
type rcEncoder struct {
	low       uint64
	rng       uint32
	cache     byte
	cacheSize int64
	dst       []byte
}

func newRcEncoder(dst []byte) *rcEncoder {
	return &rcEncoder{rng: 0xFFFFFFFF, cacheSize: 1, dst: dst}
}

func (e *rcEncoder) shiftLow() {
	if uint32(e.low) < 0xFF000000 || e.low>>32 != 0 {
		carry := byte(e.low >> 32)
		e.dst = append(e.dst, e.cache+carry)
		for ; e.cacheSize > 1; e.cacheSize-- {
			e.dst = append(e.dst, 0xFF+carry)
		}
		e.cacheSize = 0
		e.cache = byte(e.low >> 24)
	}
	e.cacheSize++
	e.low = (e.low << 8) & 0xFFFFFFFF
}

// encodeBit codes one bit under the adaptive probability p.
func (e *rcEncoder) encodeBit(p *prob, bit int) {
	bound := (e.rng >> probBits) * uint32(*p)
	if bit == 0 {
		e.rng = bound
		*p += (1<<probBits - *p) >> probMove
	} else {
		e.low += uint64(bound)
		e.rng -= bound
		*p -= *p >> probMove
	}
	for e.rng < 1<<rcTopBits {
		e.shiftLow()
		e.rng <<= 8
	}
}

// encodeDirect codes n bits of v with fixed 1/2 probability (no model).
func (e *rcEncoder) encodeDirect(v uint32, n uint) {
	for i := int(n) - 1; i >= 0; i-- {
		e.rng >>= 1
		if v>>uint(i)&1 != 0 {
			e.low += uint64(e.rng)
		}
		for e.rng < 1<<rcTopBits {
			e.shiftLow()
			e.rng <<= 8
		}
	}
}

// encodeTree codes an n-bit value MSB-first through a bit tree of
// 1<<n adaptive probabilities.
func (e *rcEncoder) encodeTree(probs []prob, v uint32, n uint) {
	m := uint32(1)
	for i := int(n) - 1; i >= 0; i-- {
		bit := int(v >> uint(i) & 1)
		e.encodeBit(&probs[m], bit)
		m = m<<1 | uint32(bit)
	}
}

// finish flushes the encoder and returns the output buffer.
func (e *rcEncoder) finish() []byte {
	for i := 0; i < 5; i++ {
		e.shiftLow()
	}
	return e.dst
}

// rcDecoder is the range decoder.
type rcDecoder struct {
	src  []byte
	pos  int
	rng  uint32
	code uint32
}

// init (re)starts the decoder on src, so the decode scratch's decoder
// value is reused without allocating.
func (d *rcDecoder) init(src []byte) error {
	if len(src) < 5 {
		return fmt.Errorf("%w: range coder stream too short", ErrCorrupt)
	}
	// The first encoder output byte is always zero (cache initialization).
	if src[0] != 0 {
		return fmt.Errorf("%w: range coder bad leading byte", ErrCorrupt)
	}
	*d = rcDecoder{src: src, rng: 0xFFFFFFFF, pos: 1}
	for i := 0; i < 4; i++ {
		d.code = d.code<<8 | uint32(d.next())
	}
	return nil
}

func (d *rcDecoder) next() byte {
	if d.pos < len(d.src) {
		b := d.src[d.pos]
		d.pos++
		return b
	}
	d.pos++ // reads past the end decode as zeros; framing is validated by length
	return 0
}

func (d *rcDecoder) normalize() {
	if d.rng < 1<<rcTopBits {
		d.rng <<= 8
		d.code = d.code<<8 | uint32(d.next())
	}
}

func (d *rcDecoder) decodeBit(p *prob) int {
	bound := (d.rng >> probBits) * uint32(*p)
	var bit int
	if d.code < bound {
		d.rng = bound
		*p += (1<<probBits - *p) >> probMove
	} else {
		d.code -= bound
		d.rng -= bound
		*p -= *p >> probMove
		bit = 1
	}
	d.normalize()
	return bit
}

func (d *rcDecoder) decodeDirect(n uint) uint32 {
	v := uint32(0)
	for i := uint(0); i < n; i++ {
		d.rng >>= 1
		bit := uint32(0)
		if d.code >= d.rng {
			d.code -= d.rng
			bit = 1
		}
		v = v<<1 | bit
		d.normalize()
	}
	return v
}

func (d *rcDecoder) decodeTree(probs []prob, n uint) uint32 {
	m := uint32(1)
	for i := uint(0); i < n; i++ {
		m = m<<1 | uint32(d.decodeBit(&probs[m]))
	}
	return m - 1<<n
}

// overrun reports whether the decoder consumed bytes past the stream end
// (beyond the encoder's 5-byte flush slack).
func (d *rcDecoder) overrun() bool {
	return d.pos > len(d.src)+4
}
