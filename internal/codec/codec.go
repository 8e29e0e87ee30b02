// Package codec implements the suite of lossless block compressors that
// FanStore uses to store training data in its compressed representation.
//
// The paper evaluates 180 compressor/option configurations from lzbench
// (§VII-D). This package reproduces each compressor *family* from scratch
// in pure Go:
//
//   - store:  memcpy baseline (no compression)
//   - rle:    byte run-length encoding
//   - lzf:    LibLZF-style byte-oriented LZ77 (8 KiB window)
//   - lz4:    LZ4 block format with acceleration levels (the lz4fast band)
//   - lz4hc:  LZ4 block format with hash-chain optimal-effort matching
//   - lzsse:  LZ4-format variants with large minimum matches (the LZSSE band)
//   - huff:   order-0 canonical Huffman
//   - lzh:    LZ77 + Huffman entropy stage (the zlib/brotli/zling band)
//   - lzr:    LZ77 + adaptive binary range coder (the lzma/xz band)
//   - flate:  stdlib DEFLATE wrapper, levels 1-9
//   - lzw:    stdlib LZW wrapper
//
// plus delta pre-filters (stride 2 and 4) that help numeric array data.
// The registry in registry.go enumerates every (codec, option, filter)
// combination — at least 180 configurations — with stable integer IDs
// used by the pack format, and aliases mapping the paper's compressor
// names (lzsse8, lz4hc, lzma, xz, brotli, zling, memcpy, ...) onto
// configurations in the equivalent performance band.
//
// Every Codec is safe for concurrent use by multiple goroutines.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Errors returned by Decompress implementations. Corrupt input must yield
// an error, never a panic: FanStore serves partitions that may arrive
// truncated over the interconnect.
var (
	// ErrCorrupt reports a malformed compressed stream.
	ErrCorrupt = errors.New("codec: corrupt stream")
	// ErrTooLarge reports a declared decoded size above MaxDecodedSize.
	ErrTooLarge = errors.New("codec: declared size exceeds limit")
)

// MaxDecodedSize bounds the decoded size a stream may declare, protecting
// the decoder from allocating unbounded memory on corrupt input.
const MaxDecodedSize = 1 << 31

// Codec is a one-shot block compressor. Compress appends the compressed
// form of src to dst and returns the extended slice. Decompress reverses
// it. Streams are self-describing: the original length is stored in a
// uvarint header so callers need not track it separately.
type Codec interface {
	// Name returns the configuration name, e.g. "lz4hc-9" or "delta4+lzr-6".
	Name() string
	// Compress appends the compressed representation of src to dst.
	Compress(dst, src []byte) ([]byte, error)
	// Decompress appends the decompressed payload to dst. It returns
	// ErrCorrupt (possibly wrapped) if the stream is malformed. It is
	// DecompressScratch with a scratch borrowed from the package's free
	// list: the one decode path every caller runs, so a warm decode
	// allocates nothing beyond growing dst.
	Decompress(dst, src []byte) ([]byte, error)
}

// blockCodec is the internal contract implemented by each compressor
// family: it works on raw blocks, with the original length carried out of
// band (the shared uvarint header is managed by wrap).
type blockCodec interface {
	name() string
	// compressBlock appends the compressed block to dst. Implementations
	// may return the input uncompressed only via their own framing; the
	// outer container does not fall back automatically.
	compressBlock(dst, src []byte) ([]byte, error)
	// decompressBlock appends exactly origLen bytes to dst, keeping any
	// per-call decoder state in s.
	decompressBlock(s *Scratch, dst, src []byte, origLen int) ([]byte, error)
}

// wrapped adapts a blockCodec to the public Codec interface by adding the
// uvarint original-length header.
type wrapped struct {
	bc blockCodec
}

// wrap builds a public Codec from a blockCodec.
func wrap(bc blockCodec) Codec { return wrapped{bc} }

func (w wrapped) Name() string { return w.bc.name() }

func (w wrapped) Compress(dst, src []byte) ([]byte, error) {
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(src)))
	dst = append(dst, hdr[:n]...)
	return w.bc.compressBlock(dst, src)
}

func (w wrapped) Decompress(dst, src []byte) ([]byte, error) {
	return w.decompress(nil, dst, src)
}

// decompress decodes src through s, or through a scratch borrowed from
// the free list when s is nil.
func (w wrapped) decompress(s *Scratch, dst, src []byte) ([]byte, error) {
	origLen, payload, err := splitHeader(src)
	if err != nil {
		return dst, err
	}
	if s == nil {
		s = scratches.Get().(*Scratch)
		defer scratches.Put(s)
	}
	return w.bc.decompressBlock(s, dst, payload, origLen)
}

// splitHeader parses the uvarint original-length header common to all
// codec containers.
func splitHeader(src []byte) (origLen int, payload []byte, err error) {
	v, n := binary.Uvarint(src)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: bad length header", ErrCorrupt)
	}
	if v > MaxDecodedSize {
		return 0, nil, ErrTooLarge
	}
	return int(v), src[n:], nil
}

// DecodedLen reports the original length declared by a compressed stream
// without decompressing it. The pack loader uses it to size cache entries.
func DecodedLen(src []byte) (int, error) {
	n, _, err := splitHeader(src)
	return n, err
}

// StoreID is the registry ID of the store (memcpy) configuration, pinned
// by the append-only registration order and asserted in tests.
const StoreID uint16 = 0

// Passthrough returns the raw payload of a store-coded stream without
// copying, or ok=false when the stream uses any other configuration.
// FanStore uses it to serve uncompressed objects directly from the
// loaded partition blob — no cache copy, as with raw data on the paper's
// RAM backend.
func Passthrough(id uint16, src []byte) ([]byte, bool) {
	if id != StoreID {
		return nil, false
	}
	n, payload, err := splitHeader(src)
	if err != nil || n != len(payload) {
		return nil, false
	}
	return payload, true
}
