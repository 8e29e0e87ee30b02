package codec

import (
	"encoding/binary"
	"fmt"
)

// lzhCodec stacks an order-0 Huffman entropy stage on top of the
// hash-chain LZ77 encoder. That is the classic DEFLATE-class design
// (zlib / brotli / zling in the paper's candidate suite): a better ratio
// than byte-oriented LZ because literals and lengths are entropy coded,
// at the cost of a bit-serial decode loop.
//
// Container: uvarint length of the intermediate LZ block, then the
// Huffman stream of that block (huffCodec block container).
type lzhCodec struct {
	level int // 1..9 chain effort
}

func (c lzhCodec) name() string { return fmt.Sprintf("lzh-%d", c.level) }

func (c lzhCodec) compressBlock(dst, src []byte) ([]byte, error) {
	lz, err := lzChainCompress(nil, src, lz4MinMatch, 2<<uint(c.level))
	if err != nil {
		return dst, err
	}
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(lz)))
	dst = append(dst, hdr[:n]...)
	return huffCodec{}.compressBlock(dst, lz)
}

func (c lzhCodec) decompressBlock(s *Scratch, dst, src []byte, origLen int) ([]byte, error) {
	lzLen, payload, err := splitHeader(src)
	if err != nil {
		return dst, fmt.Errorf("lzh: %w", err)
	}
	// The intermediate LZ block has its own slot, so a filter over lzh
	// keeps its pre-image in s.tmp meanwhile.
	lz, err := huffCodec{}.decompressBlock(s, grow(&s.lz, lzLen), payload, lzLen)
	if err != nil {
		return dst, fmt.Errorf("lzh: %w", err)
	}
	return lz4Decompress(dst, lz, origLen)
}
