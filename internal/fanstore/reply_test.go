package fanstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"fanstore/internal/codec"
	"fanstore/internal/dataset"
	"fanstore/internal/member"
	"fanstore/internal/pack"
	"fanstore/internal/rpc"
)

// failingBackend fails Get for one path with an error that is not a
// miss, the way a spill read fails.
type failingBackend struct {
	Backend
	bad string
}

func (b failingBackend) Get(path string) (uint16, []byte, error) {
	if path == b.bad {
		return 0, nil, errors.New("spill read failed")
	}
	return b.Backend.Get(path)
}

// TestFetchReplyLendsAndFramesAsBefore: an opFetch reply lends each
// RAM-resident object where the backend keeps it, and its parts join to
// the item frame built with rpc.BeginItems, BeginItem and EndItem — for
// every item kind, and for the prefix the byte bound cuts.
func TestFetchReplyLendsAndFramesAsBefore(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	random := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	var files []pack.InputFile
	for _, f := range []struct {
		path string
		size int
	}{{"small.bin", 1000}, {"a.bin", 3 << 19}, {"b.bin", 3 << 19}, {"c.bin", 3 << 19}} {
		files = append(files, pack.InputFile{Path: f.path, Data: random(f.size)})
	}
	bundle, err := pack.Build(files, pack.BuildOptions{Partitions: 1, Compressor: "memcpy"})
	if err != nil {
		t.Fatal(err)
	}
	n := &Node{
		backend: failingBackend{Backend: NewRAMBackend(), bad: "broken"},
		view:    member.NewView(member.StaticMap(1)),
		writes:  map[string][]byte{"out/written": random(3000)}, // inline: more than a MinBuf of headers
	}
	if _, err := n.loadPartition(bundle.Scatter[0]); err != nil {
		t.Fatal(err)
	}
	type item struct {
		status byte
		path   string // the object an OK item carries
	}
	payload := func(t *testing.T, path string) []byte {
		if w, ok := n.writes[path]; ok {
			out, err := codec.MustGet("store").Codec.Compress(binary.LittleEndian.AppendUint16(nil, codec.StoreID), w)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		id, data, ok := n.backend.Peek(path)
		if !ok {
			t.Fatalf("%s: not in the backend", path)
		}
		return append(binary.LittleEndian.AppendUint16(nil, id), data...)
	}
	for _, tc := range []struct {
		name    string
		version uint64
		keys    []string
		want    []item
	}{
		{"every kind", 0, []string{"small.bin", "out/written", "missing", "broken", "a.bin"}, []item{
			{rpc.ItemOK, "small.bin"}, {rpc.ItemOK, "out/written"}, {rpc.ItemNotFound, ""}, {rpc.ItemError, ""}, {rpc.ItemOK, "a.bin"},
		}},
		{"stale", 9, []string{"missing", "small.bin"}, []item{{rpc.ItemStale, ""}, {rpc.ItemOK, "small.bin"}}},
		{"prefix cut", 0, []string{"a.bin", "b.bin", "c.bin"}, []item{{rpc.ItemOK, "a.bin"}, {rpc.ItemOK, "b.bin"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var r rpc.Reply
			if err := n.handleFetchObjects(encodeFetch(tc.version, tc.keys)[1:], &r); err != nil {
				t.Fatal(err)
			}
			want := rpc.BeginItems(nil, len(tc.want))
			for _, it := range tc.want {
				want = rpc.BeginItem(want, it.status)
				start := len(want)
				if it.status == rpc.ItemError {
					want = append(want, "spill read failed"...)
				} else if it.path != "" {
					want = append(want, payload(t, it.path)...)
				}
				rpc.EndItem(want, start)
			}
			got := bytes.Join(r.Parts(), nil)
			if !bytes.Equal(got, want) {
				items, err := rpc.DecodeItems(got)
				t.Fatalf("reply of %d bytes (%d items, %v) is not the %d-byte reference frame of %d items", len(got), len(items), err, len(want), len(tc.want))
			}
			if len(got)+1 > rpc.DefaultBatchBytes { // +1: the status trailer
				t.Fatalf("a %d-byte answer is over the %d-byte bound", len(got)+1, rpc.DefaultBatchBytes)
			}
			stored := make(map[*byte]bool)
			for _, it := range tc.want {
				_, data, ok := n.backend.Peek(it.path)
				if !ok {
					continue
				}
				stored[&data[0]] = true
				lent := false
				for _, p := range r.Parts() {
					lent = lent || len(p) == len(data) && &p[0] == &data[0]
				}
				if !lent {
					t.Errorf("%s: no part shares the backend's bytes", it.path)
				}
			}
			// Every other part is cut from the owned buffer, the first
			// part: it ends where that buffer does, so the buffer was sized
			// right and never grew.
			owned := r.Parts()[0]
			end := &owned[:cap(owned)][cap(owned)-1]
			for i, p := range r.Parts() {
				if len(p) > 0 && !stored[&p[0]] && &p[:cap(p)][cap(p)-1] != end {
					t.Errorf("part %d (%d bytes) is not cut from the owned buffer", i, len(p))
				}
			}
		})
	}
}

// TestPartAndShardRepliesLend: an opFetchPart reply is the partition blob
// itself, lent, and an opFetchShard reply joins to the shard frames
// pack.MarshalShard builds in index order, each shard's bytes lent from
// the held set behind a header cut from one owned buffer.
func TestPartAndShardRepliesLend(t *testing.T) {
	lends := func(t *testing.T, r *rpc.Reply, data []byte) {
		t.Helper()
		for _, p := range r.Parts() {
			if len(p) == len(data) && &p[0] == &data[0] {
				return
			}
		}
		t.Errorf("no part shares the %d stored bytes", len(data))
	}
	t.Run("opFetchPart", func(t *testing.T) {
		bundle, _ := buildBundle(t, dataset.EM, 4, 1, 4<<10, nil)
		blob := bundle.Scatter[0]
		n := &Node{backend: NewRAMBackend(), view: member.NewView(member.StaticMap(1)), parts: make(map[uint64]*nodePart)}
		if _, err := n.loadPartitionGID(7, blob); err != nil {
			t.Fatal(err)
		}
		var r rpc.Reply
		if err := n.handleFetch(0, binary.LittleEndian.AppendUint64([]byte{opFetchPart}, 7), &r); err != nil {
			t.Fatal(err)
		}
		if got := bytes.Join(r.Parts(), nil); !bytes.Equal(got, blob) {
			t.Fatalf("reply of %d bytes, want the %d-byte blob", len(got), len(blob))
		}
		lends(t, &r, blob)
	})
	t.Run("opFetchShard", func(t *testing.T) {
		n := shardNode(t, 2, 1)
		blob := bytes.Repeat([]byte("fanstore"), 64)
		want := stripeFrames(t, n.ec.code, 7, blob, nil)
		if _, err := n.handleStoreShard(want); err != nil {
			t.Fatal(err)
		}
		var r rpc.Reply
		if err := n.handleFetch(0, binary.LittleEndian.AppendUint64([]byte{opFetchShard}, 7), &r); err != nil {
			t.Fatal(err)
		}
		if got := bytes.Join(r.Parts(), nil); !bytes.Equal(got, want) {
			t.Fatalf("reply of %d bytes is not the %d bytes of shard frames", len(got), len(want))
		}
		for i := range n.ec.code.Shards() {
			lends(t, &r, n.ec.held[7][uint8(i)].data)
		}
	})
}
