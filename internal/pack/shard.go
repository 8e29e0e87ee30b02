package pack

import (
	"encoding/binary"
	"fmt"
)

// Erasure shard framing. A partition blob (the Table I format of
// pack.go) is the erasure stripe: the store splits it into k data
// shards plus m parity shards (internal/ec) and scatters the framed
// shards across the cluster. Every frame is self-describing and
// self-delimiting, so a fetch response can concatenate any number of
// shards and the receiver can validate geometry and stripe integrity
// (blob size + CRC) before attempting a reconstruction.
//
// Frame layout, little-endian:
//
//	u64 gid | u8 index | u8 k | u8 m | u64 blobSize | u32 blobCRC |
//	u32 payloadLen | payload
const shardHeaderLen = 8 + 1 + 1 + 1 + 8 + 4 + 4

// ShardHeader describes one erasure-coded shard of a partition blob.
type ShardHeader struct {
	GID      uint64 // cluster-wide partition id
	Index    uint8  // 0..K-1 data, K..K+M-1 parity
	K, M     uint8  // stripe geometry
	BlobSize uint64 // whole-blob length, for unpadding after Join
	BlobCRC  uint32 // IEEE CRC32 of the whole blob (reconstruction check)
}

// Shard is one parsed frame. Data aliases the parsed buffer.
type Shard struct {
	Header ShardHeader
	Data   []byte
}

// MarshalShard appends one framed shard to dst and returns it.
func MarshalShard(dst []byte, h ShardHeader, data []byte) []byte {
	return append(AppendShardHeader(dst, h, len(data)), data...)
}

// AppendShardHeader appends the header of a frame whose payload is n
// bytes, for a sender that sends the payload as a part of its own.
func AppendShardHeader(dst []byte, h ShardHeader, n int) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, h.GID)
	dst = append(dst, h.Index, h.K, h.M)
	dst = binary.LittleEndian.AppendUint64(dst, h.BlobSize)
	dst = binary.LittleEndian.AppendUint32(dst, h.BlobCRC)
	return binary.LittleEndian.AppendUint32(dst, uint32(n))
}

// ShardFrameLen is the framed size of a shard with a payload of n bytes.
func ShardFrameLen(n int) int { return shardHeaderLen + n }

// ParseShard decodes the first frame of src, returning the shard and
// the remaining bytes. The shard's Data aliases src.
func ParseShard(src []byte) (Shard, []byte, error) {
	if len(src) < shardHeaderLen {
		return Shard{}, nil, fmt.Errorf("pack: shard frame truncated (%d bytes)", len(src))
	}
	h := ShardHeader{
		GID:      binary.LittleEndian.Uint64(src),
		Index:    src[8],
		K:        src[9],
		M:        src[10],
		BlobSize: binary.LittleEndian.Uint64(src[11:]),
		BlobCRC:  binary.LittleEndian.Uint32(src[19:]),
	}
	n := int(binary.LittleEndian.Uint32(src[23:]))
	if n < 0 || shardHeaderLen+n > len(src) {
		return Shard{}, nil, fmt.Errorf("pack: shard payload truncated (want %d, have %d)", n, len(src)-shardHeaderLen)
	}
	if h.K == 0 || int(h.Index) >= int(h.K)+int(h.M) {
		return Shard{}, nil, fmt.Errorf("pack: shard %d/%d+%d: bad geometry", h.Index, h.K, h.M)
	}
	return Shard{Header: h, Data: src[shardHeaderLen : shardHeaderLen+n]}, src[shardHeaderLen+n:], nil
}

// ParseShards decodes a concatenation of shard frames (possibly empty).
func ParseShards(src []byte) ([]Shard, error) {
	var out []Shard
	for len(src) > 0 {
		sh, rest, err := ParseShard(src)
		if err != nil {
			return nil, err
		}
		out = append(out, sh)
		src = rest
	}
	return out, nil
}
