package codec

import (
	"encoding/binary"
	"fmt"
	"math"

	"fanstore/internal/lossy"
)

// Layered container: progressive encoding in the mold of Progressive
// Compressed Records. A record is split into a base layer plus refinement
// layers such that the XOR of the first k decoded layers is a valid
// full-length record at fidelity k, and the XOR of all layers is the
// original bytes exactly. A self-describing layer index at the front maps
// each layer to a (offset, length) extent in the payload, so a reader that
// wants fidelity k needs only the container prefix covering layers 0..k-1.
// The container is a standalone codec: partitions do not hold it and the
// read path never decodes it.
//
// Container layout (little-endian):
//
//	[0] 0xFA  [1] 0x4C   magic ("FanStore Layered")
//	[2] version (1)
//	[3] scheme (LayerBits | LayerFloat)
//	[4] layer count L (1..MaxLayers)
//	uvarint origLen
//	L x (uvarint extentOff, uvarint extentLen)   offsets into the payload
//	payload: L concatenated layer bodies
//
// Extents are contiguous by construction: extentOff[0] == 0 and each layer
// starts where the previous one ends. The parser enforces this — an index
// declaring overlapping or gapped extents is corrupt. A container may be
// truncated at any layer boundary and still decode the layers it holds.
//
// Each layer body is itself self-describing:
//
//	[0] body kind (bodyCodec | bodySZ)
//	[1:3] u16 inner registry codec ID
//	inner codec stream
//
// A bodyCodec body decompresses (via the inner registry codec) directly to
// origLen raw bytes. A bodySZ body decompresses to an internal/lossy SZ
// stream, whose float32 reconstruction — byte-identical on every decoder,
// because the encoder rounds through the same path — forms the origLen
// bytes. Refinement layers are always bodyCodec, holding bit-planes of the
// residual (src XOR base), so a refinement extent decodes on its own
// without knowing the scheme that produced the base.

// LayerScheme selects how EncodeLayered splits a record into layers.
type LayerScheme uint8

const (
	// LayerBits partitions the 8 bit-planes of every byte across the
	// layers, most-significant first. Works on any payload.
	LayerBits LayerScheme = 0
	// LayerFloat treats the payload as little-endian float32s: the base
	// layer is an error-bounded SZ quantization (small, lossy), and the
	// refinement layers are bit-planes of the residual. Falls back to
	// LayerBits when the payload length is not a positive multiple of 4.
	LayerFloat LayerScheme = 1
)

// MaxLayers bounds the layer count of a container (one layer per bit-plane
// at most, plus a lossy base).
const MaxLayers = 8

// Layer body kinds.
const (
	bodyCodec byte = 0 // inner codec stream decodes to origLen raw bytes
	bodySZ    byte = 1 // inner codec stream decodes to an SZ float stream
)

const (
	layeredMagic0  = 0xFA
	layeredMagic1  = 0x4C
	layeredVersion = 1
	// kind byte + 2-byte codec ID + at least a 1-byte stream header.
	minBodyLen = 4
)

// DefaultFloatBound is the SZ absolute error bound used by LayerFloat when
// LayerOptions.FloatBound is zero.
const DefaultFloatBound = 1e-3

// LayerOptions configures EncodeLayered.
type LayerOptions struct {
	// Layers is the total layer count, 2..MaxLayers.
	Layers int
	// Scheme selects the split (default LayerBits).
	Scheme LayerScheme
	// Codecs optionally names the inner registry codec per layer; layer i
	// uses Codecs[min(i, len-1)]. Empty means "lz4" for every layer.
	Codecs []string
	// FloatBound is the SZ absolute error bound for LayerFloat bases
	// (default DefaultFloatBound).
	FloatBound float64
}

// LayerExtent is one layer's byte range within the container payload.
type LayerExtent struct {
	Off uint32
	Len uint32
}

// LayerIndex is the parsed self-describing index of a layered container.
type LayerIndex struct {
	Scheme    LayerScheme
	OrigLen   int
	HeaderLen int // bytes before the payload: magic through extent table
	Extents   []LayerExtent
}

// Layers returns the declared layer count.
func (ix *LayerIndex) Layers() int { return len(ix.Extents) }

// PrefixSize returns the container bytes (header included) covering the
// first k layers — the byte budget a fidelity-k reader needs. k is clamped
// to [0, Layers()].
func (ix *LayerIndex) PrefixSize(k int) int {
	if k <= 0 {
		return ix.HeaderLen
	}
	if k > len(ix.Extents) {
		k = len(ix.Extents)
	}
	e := ix.Extents[k-1]
	return ix.HeaderLen + int(e.Off) + int(e.Len)
}

// LayersIn reports how many complete layers an n-byte container prefix
// holds.
func (ix *LayerIndex) LayersIn(n int) int {
	k := 0
	for k < len(ix.Extents) && ix.PrefixSize(k+1) <= n {
		k++
	}
	return k
}

// ParseLayerIndex validates and parses the index of a layered container
// (or any prefix of one that includes the complete index). The payload may
// be truncated; the index itself must be whole and self-consistent —
// non-contiguous extents are corrupt.
func ParseLayerIndex(container []byte) (LayerIndex, error) {
	var ix LayerIndex
	if len(container) < 5 {
		return ix, fmt.Errorf("%w: layered header truncated", ErrCorrupt)
	}
	if container[0] != layeredMagic0 || container[1] != layeredMagic1 {
		return ix, fmt.Errorf("%w: not a layered container", ErrCorrupt)
	}
	if container[2] != layeredVersion {
		return ix, fmt.Errorf("%w: layered version %d", ErrCorrupt, container[2])
	}
	scheme := LayerScheme(container[3])
	if scheme != LayerBits && scheme != LayerFloat {
		return ix, fmt.Errorf("%w: layered scheme %d", ErrCorrupt, container[3])
	}
	nl := int(container[4])
	if nl < 1 || nl > MaxLayers {
		return ix, fmt.Errorf("%w: layered layer count %d", ErrCorrupt, nl)
	}
	pos := 5
	origLen, n := binary.Uvarint(container[pos:])
	if n <= 0 {
		return ix, fmt.Errorf("%w: layered length header", ErrCorrupt)
	}
	if origLen > MaxDecodedSize {
		return ix, ErrTooLarge
	}
	pos += n

	exts := make([]LayerExtent, nl)
	end := uint64(0)
	for i := 0; i < nl; i++ {
		off, n := binary.Uvarint(container[pos:])
		if n <= 0 {
			return ix, fmt.Errorf("%w: layered extent %d offset", ErrCorrupt, i)
		}
		pos += n
		ln, n := binary.Uvarint(container[pos:])
		if n <= 0 {
			return ix, fmt.Errorf("%w: layered extent %d length", ErrCorrupt, i)
		}
		pos += n
		if ln < minBodyLen || ln > MaxDecodedSize {
			return ix, fmt.Errorf("%w: layered extent %d length %d", ErrCorrupt, i, ln)
		}
		// Extents must tile the payload exactly: layer i starts where
		// layer i-1 ended. Overlaps and gaps are both corrupt.
		if off != end {
			return ix, fmt.Errorf("%w: layered extent %d at %d, want %d", ErrCorrupt, i, off, end)
		}
		end = off + ln
		if end > MaxDecodedSize {
			return ix, ErrTooLarge
		}
		exts[i] = LayerExtent{Off: uint32(off), Len: uint32(ln)}
	}
	ix.Scheme = scheme
	ix.OrigLen = int(origLen)
	ix.HeaderLen = pos
	ix.Extents = exts
	return ix, nil
}

// bitGroups distributes the 8 bit-planes of a byte over n layers,
// most-significant first, returning one mask per layer. Earlier layers get
// the extra bits so a short prefix carries the most signal.
func bitGroups(n int) []byte {
	masks := make([]byte, n)
	per, extra := 8/n, 8%n
	top := 8
	for i := range masks {
		w := per
		if i < extra {
			w++
		}
		masks[i] = byte(((1 << w) - 1) << (top - w))
		top -= w
	}
	return masks
}

// xorInto xors src into dst (same length).
func xorInto(dst, src []byte) {
	n := len(dst)
	i := 0
	for ; i+8 <= n; i += 8 {
		v := binary.LittleEndian.Uint64(dst[i:]) ^ binary.LittleEndian.Uint64(src[i:])
		binary.LittleEndian.PutUint64(dst[i:], v)
	}
	for ; i < n; i++ {
		dst[i] ^= src[i]
	}
}

// layerCodec resolves the inner codec for layer i from the options.
func layerCodec(opts LayerOptions, i int) (Config, error) {
	name := "lz4"
	if len(opts.Codecs) > 0 {
		j := i
		if j >= len(opts.Codecs) {
			j = len(opts.Codecs) - 1
		}
		if opts.Codecs[j] != "" {
			name = opts.Codecs[j]
		}
	}
	cfg, ok := ByName(name)
	if !ok {
		return Config{}, fmt.Errorf("codec: unknown layer codec %q", name)
	}
	return cfg, nil
}

// appendBody appends one layer body (kind, inner codec ID, stream) to dst.
func appendBody(dst []byte, kind byte, cfg Config, raw []byte) ([]byte, error) {
	dst = append(dst, kind, byte(cfg.ID), byte(cfg.ID>>8))
	return cfg.Codec.Compress(dst, raw)
}

// EncodeLayered appends a layered container holding src to dst. The XOR of
// all decoded layers is src exactly; any prefix of layers decodes to a
// full-length lower-fidelity approximation.
func EncodeLayered(dst, src []byte, opts LayerOptions) ([]byte, error) {
	L := opts.Layers
	if L < 2 || L > MaxLayers {
		return dst, fmt.Errorf("codec: layered layer count %d (want 2..%d)", L, MaxLayers)
	}
	if len(src) > MaxDecodedSize {
		return dst, ErrTooLarge
	}
	scheme := opts.Scheme
	if scheme != LayerBits && scheme != LayerFloat {
		return dst, fmt.Errorf("codec: layered scheme %d", scheme)
	}
	if scheme == LayerFloat && (len(src) == 0 || len(src)%4 != 0) {
		scheme = LayerBits // float split needs whole float32s
	}

	var payload []byte
	exts := make([]LayerExtent, 0, L)
	tmp := make([]byte, len(src))
	appendLayer := func(kind byte, i int, raw []byte) error {
		cfg, err := layerCodec(opts, i)
		if err != nil {
			return err
		}
		start := len(payload)
		payload, err = appendBody(payload, kind, cfg, raw)
		if err != nil {
			return err
		}
		exts = append(exts, LayerExtent{Off: uint32(start), Len: uint32(len(payload) - start)})
		return nil
	}

	switch scheme {
	case LayerBits:
		for i, mask := range bitGroups(L) {
			for j, b := range src {
				tmp[j] = b & mask
			}
			if err := appendLayer(bodyCodec, i, tmp); err != nil {
				return dst, err
			}
		}
	case LayerFloat:
		bound := opts.FloatBound
		if bound <= 0 {
			bound = DefaultFloatBound
		}
		floats := make([]float32, len(src)/4)
		for i := range floats {
			floats[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
		}
		sz := lossy.SZ{ErrBound: bound}
		stream, err := sz.Compress(nil, floats)
		if err != nil {
			return dst, err
		}
		// Reconstruct through the decoder so the residual is computed
		// against exactly what a reader of the base layer will see.
		recon, err := sz.Decompress(floats[:0], stream)
		if err != nil {
			return dst, err
		}
		base := tmp
		for i, v := range recon {
			binary.LittleEndian.PutUint32(base[4*i:], math.Float32bits(v))
		}
		if err := appendLayer(bodySZ, 0, stream); err != nil {
			return dst, err
		}
		residual := make([]byte, len(src))
		copy(residual, src)
		xorInto(residual, base)
		plane := make([]byte, len(src))
		for i, mask := range bitGroups(L - 1) {
			for j, b := range residual {
				plane[j] = b & mask
			}
			if err := appendLayer(bodyCodec, i+1, plane); err != nil {
				return dst, err
			}
		}
	}

	var hdr [binary.MaxVarintLen64]byte
	dst = append(dst, layeredMagic0, layeredMagic1, layeredVersion, byte(scheme), byte(L))
	n := binary.PutUvarint(hdr[:], uint64(len(src)))
	dst = append(dst, hdr[:n]...)
	for _, e := range exts {
		n = binary.PutUvarint(hdr[:], uint64(e.Off))
		dst = append(dst, hdr[:n]...)
		n = binary.PutUvarint(hdr[:], uint64(e.Len))
		dst = append(dst, hdr[:n]...)
	}
	return append(dst, payload...), nil
}

// decodeBodyInto decodes one layer body to exactly origLen raw bytes,
// appending to dst.
func decodeBodyInto(s *Scratch, dst, body []byte, origLen int) ([]byte, error) {
	if len(body) < 3 {
		return dst, fmt.Errorf("%w: layer body truncated", ErrCorrupt)
	}
	kind := body[0]
	id := uint16(body[1]) | uint16(body[2])<<8
	cfg, ok := ByID(id)
	if !ok {
		return dst, fmt.Errorf("%w: layer body codec id %d", ErrCorrupt, id)
	}
	stream := body[3:]
	switch kind {
	case bodyCodec:
		mark := len(dst)
		out, err := DecompressScratch(cfg.Codec, s, dst, stream)
		if err != nil {
			return dst, err
		}
		if len(out)-mark != origLen {
			return dst, fmt.Errorf("%w: layer body decodes to %d bytes, want %d", ErrCorrupt, len(out)-mark, origLen)
		}
		return out, nil
	case bodySZ:
		if origLen%4 != 0 {
			return dst, fmt.Errorf("%w: sz layer for %d-byte record", ErrCorrupt, origLen)
		}
		raw, err := DecompressScratch(cfg.Codec, s, nil, stream)
		if err != nil {
			return dst, err
		}
		floats, err := lossy.SZ{}.Decompress(make([]float32, 0, origLen/4), raw)
		if err != nil {
			return dst, err
		}
		if len(floats)*4 != origLen {
			return dst, fmt.Errorf("%w: sz layer decodes %d values, want %d", ErrCorrupt, len(floats), origLen/4)
		}
		for _, v := range floats {
			bits := math.Float32bits(v)
			dst = append(dst, byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24))
		}
		return dst, nil
	default:
		return dst, fmt.Errorf("%w: layer body kind %d", ErrCorrupt, kind)
	}
}

// DecodeLayerBody decodes a single layer body (one extent of a container)
// to its full-length origLen raw bytes, appending to dst. XOR the result
// onto a fidelity-k record to reach fidelity k+1.
func DecodeLayerBody(dst, body []byte, origLen int) ([]byte, error) {
	if origLen < 0 || origLen > MaxDecodedSize {
		return dst, ErrTooLarge
	}
	return decodeBodyInto(nil, dst, body, origLen)
}

// DecodeLayered decodes a layered container prefix at up to maxLayers
// fidelity, appending the full-length record to dst and reporting how many
// layers were applied. maxLayers <= 0 means every layer the prefix holds.
// Decoding all layers of a whole container reproduces the original bytes
// exactly; fewer layers yield the declared lower-fidelity approximation.
// A prefix holding no complete layer is an error.
func DecodeLayered(dst, container []byte, maxLayers int) ([]byte, int, error) {
	return DecodeLayeredScratch(nil, dst, container, maxLayers)
}

// DecodeLayeredScratch is DecodeLayered drawing decoder state from s.
func DecodeLayeredScratch(s *Scratch, dst, container []byte, maxLayers int) ([]byte, int, error) {
	ix, err := ParseLayerIndex(container)
	if err != nil {
		return dst, 0, err
	}
	k := ix.LayersIn(len(container))
	if maxLayers > 0 && maxLayers < k {
		k = maxLayers
	}
	if k < 1 {
		return dst, 0, fmt.Errorf("%w: layered container holds no complete layer", ErrCorrupt)
	}
	mark := len(dst)
	body := func(i int) []byte {
		e := ix.Extents[i]
		return container[ix.HeaderLen+int(e.Off) : ix.HeaderLen+int(e.Off)+int(e.Len)]
	}
	dst, err = decodeBodyInto(s, dst, body(0), ix.OrigLen)
	if err != nil {
		return dst[:mark], 0, err
	}
	if k == 1 {
		return dst, 1, nil
	}
	out := dst[mark:]
	plane := make([]byte, 0, ix.OrigLen)
	for i := 1; i < k; i++ {
		var err error
		plane, err = decodeBodyInto(s, plane[:0], body(i), ix.OrigLen)
		if err != nil {
			return dst[:mark], 0, err
		}
		xorInto(out, plane)
	}
	return dst, k, nil
}
