package rpc

import (
	"encoding/binary"
	"fmt"
)

// Multi-object frames. A batched request carries N object keys in one
// round trip and the response carries N independently-statused items, so
// a partial miss (some keys absent from the peer's backend) degrades to
// per-item not-found instead of poisoning the whole batch. The Server
// does not interpret these frames — they ride inside the ordinary
// request/response payloads — but both daemon sides use this encoding,
// so it lives with the wire layer.
//
// Key frame:   u32 count | (u32 len | bytes)*
// Item frame:  u32 count | (u8 status | u32 len | bytes)*
//
// Both decoders read peer bytes: count is checked against the bytes that
// remain (every key costs at least keyHeader bytes, every item
// itemHeader) before anything is allocated for it.

// The fixed cost of one entry: a key's u32 length, and an item's u8
// status plus its u32 length.
const (
	keyHeader  = 4
	itemHeader = 5
)

// DefaultBatchItems and DefaultBatchBytes bound one batched call.
// Epoch-scale prefetch plans are split into calls of at most
// DefaultBatchItems keys, and a server answers the longest prefix of a
// call's keys whose objects fit in DefaultBatchBytes (at least one); the
// caller asks again for the rest. Large enough to amortize the round
// trip, small enough that one call neither monopolizes a daemon worker
// nor builds a monster frame. The byte bound is on the wire, where only
// the server knows an object's compressed size, and it also caps what
// the buffer pool keeps: the server's response and the client's receive
// frame return to decomp's size classes, which hold their high-water
// mark until a garbage collection. At 32 raw objects of 256 KiB those
// frames were 16 MiB each.
const (
	DefaultBatchItems = 64
	DefaultBatchBytes = 4 << 20
)

// Per-item statuses of a batched response.
const (
	// ItemOK marks an item whose payload is the requested object.
	ItemOK = byte(0)
	// ItemNotFound marks a key the responder does not hold (the
	// partial-miss case: the caller fails over or fetches on demand).
	ItemNotFound = byte(1)
	// ItemError marks a per-item handler failure; the payload carries
	// the error text.
	ItemError = byte(2)
	// ItemStale marks a key the responder does not hold while its cluster
	// map disagrees with the caller's: the per-item form of ErrStale.
	ItemStale = byte(3)
)

// Item is one object of a batched response.
type Item struct {
	Status  byte
	Payload []byte
}

// KeysSize is the encoded size of a key frame for keys.
func KeysSize(keys []string) int {
	n := 4
	for _, k := range keys {
		n += keyHeader + len(k)
	}
	return n
}

// AppendKeys appends a key frame holding keys to dst.
func AppendKeys(dst []byte, keys []string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(keys)))
	for _, k := range keys {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(k)))
		dst = append(dst, k...)
	}
	return dst
}

// decodeCount reads a frame's u32 entry count and bounds it by what the
// remaining bytes can hold at header bytes an entry, so a four-byte frame
// cannot make the decoder allocate for entries that are not there.
func decodeCount(p []byte, what string, header uint64) (int, []byte, error) {
	if len(p) < 4 {
		return 0, nil, fmt.Errorf("rpc: %s frame truncated (%d bytes)", what, len(p))
	}
	count := binary.LittleEndian.Uint32(p)
	p = p[4:]
	if uint64(count)*header > uint64(len(p)) {
		return 0, nil, fmt.Errorf("rpc: %s frame truncated: %d entries declared, %d bytes remain", what, count, len(p))
	}
	return int(count), p, nil
}

// decodeBody splits one (u32 len | bytes) body off p.
func decodeBody(p []byte, what string, i int) (body, rest []byte, err error) {
	if len(p) < 4 {
		return nil, nil, fmt.Errorf("rpc: %s %d: header truncated", what, i)
	}
	l := binary.LittleEndian.Uint32(p)
	p = p[4:]
	if uint64(l) > uint64(len(p)) {
		return nil, nil, fmt.Errorf("rpc: %s %d: %d bytes declared, %d remain", what, i, l, len(p))
	}
	return p[:l], p[l:], nil
}

// DecodeKeys parses a key frame.
func DecodeKeys(p []byte) ([]string, error) {
	count, p, err := decodeCount(p, "batch key", keyHeader)
	if err != nil {
		return nil, err
	}
	keys := make([]string, count)
	for i := range keys {
		var key []byte
		if key, p, err = decodeBody(p, "batch key", i); err != nil {
			return nil, err
		}
		keys[i] = string(key)
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("rpc: batch key frame has %d trailing bytes", len(p))
	}
	return keys, nil
}

// BeginItems starts a batched response of count items in dst. Every
// item follows as BeginItem, the payload appended in place, EndItem — so
// a handler builds the whole response in one (pooled) frame without an
// intermediate buffer per item. ItemsSize sizes that frame.
func BeginItems(dst []byte, count int) []byte {
	return binary.LittleEndian.AppendUint32(dst, uint32(count))
}

// ItemsSize is the encoded size of an item frame carrying count items
// whose payloads total payloadBytes.
func ItemsSize(count, payloadBytes int) int { return 4 + count*itemHeader + payloadBytes }

// BeginItem appends one item's header; the caller appends the payload
// and then calls EndItem with the frame length BeginItem returned at.
func BeginItem(dst []byte, status byte) []byte {
	return append(dst, status, 0, 0, 0, 0)
}

// EndItem closes the item whose payload is frame[start:], start being
// len(frame) right after its BeginItem.
func EndItem(frame []byte, start int) {
	binary.LittleEndian.PutUint32(frame[start-4:], uint32(len(frame)-start))
}

// DecodeItems parses a batched response payload. Item payloads alias p.
func DecodeItems(p []byte) ([]Item, error) {
	count, p, err := decodeCount(p, "batch item", itemHeader)
	if err != nil {
		return nil, err
	}
	items := make([]Item, count)
	for i := range items {
		if len(p) == 0 {
			return nil, fmt.Errorf("rpc: batch item %d: header truncated", i)
		}
		it := &items[i]
		it.Status = p[0]
		if it.Payload, p, err = decodeBody(p[1:], "batch item", i); err != nil {
			return nil, err
		}
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("rpc: batch item frame has %d trailing bytes", len(p))
	}
	return items, nil
}
