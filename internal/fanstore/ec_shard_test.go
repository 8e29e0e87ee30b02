package fanstore

import (
	"bytes"
	"errors"
	"hash/crc32"
	"runtime"
	"strings"
	"testing"

	"fanstore/internal/ec"
	"fanstore/internal/member"
	"fanstore/internal/pack"
)

// TestParseRedundancy is the flag syntax's table: none and ec(k,m) with
// a geometry the code accepts parse, and String gives back what a second
// parse reads the same; replicate is refused naming its mirror.
func TestParseRedundancy(t *testing.T) {
	for in, want := range map[string]Redundancy{
		"":         {},
		"none":     {},
		"ec(1,0)":  {K: 1, M: 0},
		"ec(2,1)":  {K: 2, M: 1},
		"EC(4, 2)": {K: 4, M: 2},
	} {
		got, err := ParseRedundancy(in)
		if err != nil || got != want {
			t.Errorf("ParseRedundancy(%q) = %+v, %v; want %+v", in, got, err, want)
			continue
		}
		if again, err := ParseRedundancy(got.String()); err != nil || again != got {
			t.Errorf("ParseRedundancy(%q.String() = %q) = %+v, %v", in, got.String(), again, err)
		}
	}
	for _, in := range []string{"replicate", "ec(0,1)", "ec(2)", "ec(2,1)x", "ec(0,0)", "raid6", "ec(-1,2)"} {
		got, err := ParseRedundancy(in)
		if err == nil {
			t.Errorf("ParseRedundancy(%q) = %+v, want an error", in, got)
		}
		if in == "replicate" && (err == nil || !strings.Contains(err.Error(), "ec(1,0)")) {
			t.Errorf("ParseRedundancy(%q) error %v does not name ec(1,0)", in, err)
		}
	}
	if s := (Redundancy{}).String(); s != "none" {
		t.Errorf("the zero Redundancy renders %q, want none", s)
	}
}

// shardNode is a hand-built ec(k,m) node that is its whole cluster: the
// shard door and the gather run as mounted, and a gather that comes up
// short finds no peer to ask.
func shardNode(t testing.TB, k, m int) *Node {
	t.Helper()
	code, err := ec.New(k, m)
	if err != nil {
		t.Fatal(err)
	}
	return &Node{
		view: member.NewView(member.StaticMap(1)),
		ec:   newECState(code, nil),
	}
}

// stripeFrames splits blob into its k+m framed shards; edit adjusts each
// header before it is framed.
func stripeFrames(t testing.TB, code *ec.Code, gid uint64, blob []byte, edit func(*pack.ShardHeader)) []byte {
	t.Helper()
	shards := code.Split(blob)
	if err := code.Encode(shards); err != nil {
		t.Fatal(err)
	}
	var frames []byte
	for i, sh := range shards {
		h := pack.ShardHeader{GID: gid, Index: uint8(i), K: uint8(code.K()), M: uint8(code.M()),
			BlobSize: uint64(len(blob)), BlobCRC: crc32.ChecksumIEEE(blob)}
		if edit != nil {
			edit(&h)
		}
		frames = pack.MarshalShard(frames, h, sh)
	}
	return frames
}

// TestShardBlobSizeCannotSizeTheRebuild is the probe that killed the
// process: one opStoreShard frame whose header claims a 2^62-byte (or a
// 1 TiB) blob over 16-byte shards armed ecRebuildPart's make() — a panic,
// or an out-of-memory abort, on a decode-pool goroutine that no caller
// can recover. The door must refuse the frame, and a shard that got past
// it some other way must be refused again by the gather.
func TestShardBlobSizeCannotSizeTheRebuild(t *testing.T) {
	for _, claimed := range []uint64{1 << 62, 1 << 40, 33} {
		n := shardNode(t, 2, 1)
		blob := bytes.Repeat([]byte("fanstore"), 4) // 32 bytes: two 16-byte data shards
		frames := stripeFrames(t, n.ec.code, 7, blob, func(h *pack.ShardHeader) { h.BlobSize = claimed })
		if _, err := n.handleStoreShard(frames); err == nil {
			t.Errorf("the door accepted shards claiming a %d-byte blob over 16-byte payloads", claimed)
		}
		if len(n.ec.held[7]) != 0 {
			t.Errorf("the refused frame left %d shards held", len(n.ec.held[7]))
		}
		// Past the door (as a peer's opFetchShard answer arrives): refused
		// by the gather, and the read fails with the typed short-set error.
		shs, err := pack.ParseShards(frames)
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range shs {
			n.ecStoreShard(sh)
		}
		if _, err := n.ecRebuildPart(7); !errors.Is(err, ec.ErrShortSet) {
			t.Errorf("rebuild over shards claiming %d bytes: %v, want ec.ErrShortSet", claimed, err)
		}
	}
}

// TestShardSetMustAgreeOnTheBlob: shards of one partition whose headers
// disagree on the blob's size or CRC cannot all describe it; the gather
// keeps the first description, refuses the rest, and reports the set
// short with the disagreement named. A consistent set still rebuilds.
func TestShardSetMustAgreeOnTheBlob(t *testing.T) {
	blob := bytes.Repeat([]byte("fanstore"), 4)
	for _, tc := range []struct {
		name string
		edit func(*pack.ShardHeader)
	}{
		{"size", func(h *pack.ShardHeader) { h.BlobSize -= uint64(h.Index) }},
		{"crc", func(h *pack.ShardHeader) { h.BlobCRC += uint32(h.Index) }},
	} {
		n := shardNode(t, 2, 1)
		if _, err := n.handleStoreShard(stripeFrames(t, n.ec.code, 7, blob, tc.edit)); err != nil {
			t.Fatalf("%s: the door refused shards that each fit: %v", tc.name, err)
		}
		_, err := n.ecRebuildPart(7)
		if !errors.Is(err, ec.ErrShortSet) || !strings.Contains(err.Error(), "refused") {
			t.Errorf("%s: rebuild over disagreeing shards: %v, want ec.ErrShortSet naming the refusal", tc.name, err)
		}
	}
	n := shardNode(t, 2, 1)
	if _, err := n.handleStoreShard(stripeFrames(t, n.ec.code, 7, blob, nil)); err != nil {
		t.Fatal(err)
	}
	shards, hdr, err := n.ecGatherShards(7)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := n.ec.code.Join(nil, shards, int(hdr.BlobSize)); err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("a consistent stripe joined to %q, %v", got, err)
	}
}

// FuzzShardFrames feeds the shard plane arbitrary peer bytes, the way
// they arrive: ParseShards, the door (handleStoreShard), then for every
// partition that now holds shards the gather's acceptance rule and, when
// it finds k, Reconstruct and Join. Nothing may panic, and the blob the
// headers describe — the allocation Join is handed — may not exceed what
// k payloads of the accepted length hold.
func FuzzShardFrames(f *testing.F) {
	// TotalAlloc is process-wide: the slack covers the fuzz worker's own
	// traffic. The defect guarded against asks for TiBs.
	const allocSlack = 1 << 16
	code, err := ec.New(2, 1)
	if err != nil {
		f.Fatal(err)
	}
	blob := bytes.Repeat([]byte("fanstore"), 4)
	f.Add(stripeFrames(f, code, 7, blob, nil))
	f.Add(stripeFrames(f, code, 7, blob, func(h *pack.ShardHeader) { h.BlobSize = 1 << 62 }))
	f.Add(stripeFrames(f, code, 7, blob, func(h *pack.ShardHeader) { h.BlobSize = 1 << 40 }))
	f.Add(stripeFrames(f, code, 7, blob, func(h *pack.ShardHeader) { h.BlobSize -= uint64(h.Index) }))
	f.Add(stripeFrames(f, code, 7, blob, func(h *pack.ShardHeader) { h.BlobCRC ^= uint32(h.Index) }))
	f.Add(stripeFrames(f, code, 7, nil, nil)) // the empty blob: 1-byte shards
	f.Add(stripeFrames(f, code, 7, blob, nil)[:40])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n := &Node{view: member.NewView(member.StaticMap(1)), ec: newECState(code, nil)}
		_, _ = n.handleStoreShard(body)
		for gid := range n.ec.held {
			shards, hdr, err := n.ecGatherShards(gid)
			if err != nil {
				continue
			}
			size := 0
			for _, sh := range shards {
				size = max(size, len(sh))
			}
			if hdr.BlobSize > uint64(code.K()*size) {
				t.Fatalf("gather accepted a %d-byte blob over %d-byte shards", hdr.BlobSize, size)
			}
			if err := code.Reconstruct(shards); err != nil {
				continue
			}
			_, _ = code.Join(make([]byte, 0, hdr.BlobSize), shards, int(hdr.BlobSize))
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > uint64(16*len(body)+allocSlack) {
			t.Fatalf("a %d-byte frame made the shard plane allocate %d bytes", len(body), got)
		}
	})
}
