package fanstore

import (
	"bytes"
	"encoding/binary"
	"path"
	"slices"
	"strings"
	"testing"

	"fanstore/internal/dataset"
	"fanstore/internal/mpi"
	"fanstore/internal/rpc"
)

// The peer-bytes decoders the frame-level targets only reach through
// their envelopes: decodeMetas (every opWriteMeta body, opMetaSync
// reply, mount table and ctrlCommit ends in it), decodePaths (the
// replica announcement), and the fixed-header partition request,
// opFetchPart, as a mounted node's daemon sees it. None may panic or
// allocate more than a small multiple of the frame.

// FuzzDecodeMetas fuzzes the metadata-list decoder.
func FuzzDecodeMetas(f *testing.F) {
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // 4 G records in a 4-byte frame
	f.Add([]byte{1, 0, 0})                // truncated count
	f.Add(encodeMetas(nil))
	metas, _ := genMetas([]byte{0x61, 3, 'a', '/', 'b', 0x12, 1, 'c'}, 2)
	enc := encodeMetas(metas)
	f.Add(enc)
	f.Add(enc[:len(enc)-3]) // cut short inside the last record
	fan := encodeMetas(metas[1:])
	fan[len(fan)-1] = 0xff // 255 replicas declared, none present
	f.Add(fan)

	f.Fuzz(func(t *testing.T, body []byte) {
		var got []FileMeta
		var err error
		if n := allocated(func() { got, err = decodeMetas(body) }); n > uint64(16*len(body)+ctrlAllocSlack) {
			t.Fatalf("%d-byte frame made decodeMetas allocate %d bytes", len(body), n)
		}
		if err == nil {
			if back, err := decodeMetas(encodeMetas(got)); err != nil || !sameMetas(back, got) {
				t.Fatalf("frame %x decoded to %+v, which re-encodes to %+v, err %v", body, got, back, err)
			}
		}
		gen, _ := genMetas(body, 8)
		if back, err := decodeMetas(encodeMetas(gen)); err != nil || !sameMetas(back, gen) {
			t.Fatalf("generated records %+v came back %+v, err %v", gen, back, err)
		}
	})
}

// FuzzDecodePaths fuzzes the path-list decoder.
func FuzzDecodePaths(f *testing.F) {
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // 4 G paths in a 4-byte frame
	f.Add([]byte{2, 0})                   // truncated count
	f.Add(encodePaths(nil))
	enc := encodePaths([]string{"train/a.tif", "", "ckpt/rank0"})
	f.Add(enc)
	f.Add(enc[:len(enc)-4]) // the last path cut short

	f.Fuzz(func(t *testing.T, body []byte) {
		var got []string
		var err error
		if n := allocated(func() { got, err = decodePaths(body) }); n > uint64(16*len(body)+ctrlAllocSlack) {
			t.Fatalf("%d-byte frame made decodePaths allocate %d bytes", len(body), n)
		}
		if err == nil {
			if back, err := decodePaths(encodePaths(got)); err != nil || !slices.Equal(back, got) {
				t.Fatalf("frame %x decoded to %q, which re-encodes to %q, err %v", body, got, back, err)
			}
		}
		// Generate a list from the input: a length byte, then the path.
		var gen []string
		for q := body; len(q) >= 1; {
			l := min(int(q[0]), len(q)-1)
			gen, q = append(gen, string(q[1:1+l])), q[1+l:]
		}
		if back, err := decodePaths(encodePaths(gen)); err != nil || !slices.Equal(back, gen) {
			t.Fatalf("generated paths %q came back %q, err %v", gen, back, err)
		}
	})
}

// cleaned is where FuzzCleanPath's allocation check stores its result,
// so the call it measures cannot be optimized away.
var cleaned string

// FuzzCleanPath holds cleanPath to its definition, path.Clean rooted at
// "/" with the root's slash removed, and to its fast path: a path that
// is its own clean form comes back unchanged and without allocating.
func FuzzCleanPath(f *testing.F) {
	for _, p := range []string{"", "a", "a/b", "/a", "a/", "a//b", "a/./b", "a/../b", ".", "..", "...", "a/..b", ".a/b."} {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, p string) {
		want := strings.TrimPrefix(path.Clean("/"+p), "/")
		if got := cleanPath(p); got != want {
			t.Fatalf("cleanPath(%q) = %q, want %q", p, got, want)
		}
		if want != p || raceDetectorEnabled {
			return
		}
		if allocs := testing.AllocsPerRun(1, func() { cleaned = cleanPath(p) }); allocs != 0 {
			t.Fatalf("cleanPath(%q) of a clean path allocates %.0f objects", p, allocs)
		}
	})
}

// mountedForFuzz mounts a one-rank elastic node (the kind that keeps its
// partition blobs for opFetchPart) that lives until the target ends.
func mountedForFuzz(f *testing.F, part []byte) *Node {
	ready, done, exited := make(chan *Node), make(chan struct{}), make(chan error, 1)
	go func() {
		exited <- mpi.Run(1, func(c *mpi.Comm) error {
			node, err := MountElastic(c, [][]byte{part}, ElasticOptions{Options: Options{CacheBytes: 1 << 20}})
			if err != nil {
				return err
			}
			defer node.Close()
			ready <- node
			<-done
			return nil
		})
	}()
	select {
	case node := <-ready:
		f.Cleanup(func() {
			close(done)
			if err := <-exited; err != nil {
				f.Error(err)
			}
		})
		return node
	case err := <-exited:
		f.Fatalf("mount: %v", err)
		return nil
	}
}

// FuzzFetchPartRequest feeds a mounted node's fetch daemon arbitrary
// opFetchPart bodies through handleFetch, the way a peer's frame arrives.
// It may not panic; a reply is exactly the partition the request names;
// and the reply lends the partition instead of copying it, so what the
// daemon allocates is bounded by the request, not the partition — a
// request the node cannot answer is refused, not reserved. The partition
// is larger than the slack, so a copy of it shows.
func FuzzFetchPartRequest(f *testing.F) {
	bundle, _ := buildBundle(f, dataset.EM, 2, 1, 256<<10, nil)
	blob := bundle.Scatter[0]
	if len(blob) <= ctrlAllocSlack {
		f.Fatalf("a %d-byte partition fits in the %d-byte slack: a copy would not show", len(blob), ctrlAllocSlack)
	}
	n := mountedForFuzz(f, blob)
	var gid uint64
	for g := range n.parts {
		gid = g
	}

	id := func(g uint64) []byte { return binary.LittleEndian.AppendUint64(nil, g) }
	f.Add(id(gid))                     // the request pullPartition sends
	f.Add(id(gid + 1))                 // no such partition
	f.Add([]byte{1, 0, 0})             // short frame
	f.Add(append(id(gid), 0))          // a byte past the id
	f.Add(id(^uint64(0)))              // the largest id
	f.Add([]byte{})                    // no id at all
	f.Add(append(id(gid), id(gid)...)) // two ids
	f.Add(id(0))                       // id zero

	f.Fuzz(func(t *testing.T, body []byte) {
		var r rpc.Reply
		var err error
		got := allocated(func() { err = n.handleFetch(0, append([]byte{opFetchPart}, body...), &r) })
		if limit := uint64(16*len(body) + ctrlAllocSlack); got > limit {
			t.Fatalf("%d-byte request made the daemon allocate %d bytes over a %d-byte partition", len(body), got, len(blob))
		}
		if resp := bytes.Join(r.Parts(), nil); err == nil && !bytes.Equal(resp, blob) {
			t.Fatalf("request %x answered %d bytes, want the %d-byte partition", body, len(resp), len(blob))
		}
	})
}
