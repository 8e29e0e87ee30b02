package fanstore

import (
	"fmt"
	"strings"
	"testing"

	"fanstore/internal/dataset"
	"fanstore/internal/member"
	"fanstore/internal/metrics"
	"fanstore/internal/mpi"
	"fanstore/internal/pack"
)

// A file's size reaches a node from two places it does not control: the
// stat of a partition entry, and a peer's metadata record (the mount's
// Allgather, opWriteMeta, opMetaSync). Either may be forged. An open of
// such a file must fail with an error naming it, having allocated no more
// than a small multiple of the object's payload — once, a size of 1<<42
// preallocated its decode buffer before any codec ran and killed the
// process.

// forgedSizes are the two forgeries: a size no payload can back, and one
// no file can have.
var forgedSizes = []int64{1 << 42, -1}

// forgeSize re-marshals blob with the stat size of its first entry set to
// size, and returns it with that entry.
func forgeSize(t testing.TB, blob []byte, size int64) ([]byte, pack.Entry) {
	t.Helper()
	p, err := pack.Parse(blob)
	if err != nil {
		t.Fatal(err)
	}
	p.Entries[0].Stat.Size = size
	forged, err := pack.Marshal(p.Entries)
	if err != nil {
		t.Fatal(err)
	}
	return forged, p.Entries[0]
}

// readForged reads path on node and checks what a forged size must
// leave behind: an error naming the path, an allocation bounded by the
// payload, and no flight or pin.
func readForged(node *Node, path string, payload int) error {
	var err error
	got := allocated(func() { _, err = node.ReadFile(path) })
	switch {
	case err == nil:
		return fmt.Errorf("read of %s succeeded", path)
	case !strings.Contains(err.Error(), path):
		return fmt.Errorf("error %q does not name %s", err, path)
	case got > uint64(16*payload+ctrlAllocSlack):
		return fmt.Errorf("read of %s allocated %d bytes for a %d-byte payload", path, got, payload)
	case node.flightCount() != 0 || node.cache.pinned() != 0:
		return fmt.Errorf("read of %s left %d flights and %d pins", path, node.flightCount(), node.cache.pinned())
	}
	return nil
}

// forgeRecord replaces path's record on node with one of the given size,
// as a peer's metadata record would.
func forgeRecord(node *Node, path string, size int64) {
	_, o, _ := node.resolve(path)
	m := *o.meta
	m.Size = size
	node.addMeta(m)
}

func TestForgedSizeFailsTheOpen(t *testing.T) {
	bundle, _ := buildBundle(t, dataset.EM, 4, 2, 4<<10, nil)
	for _, size := range forgedSizes {
		// The stat is forged in a partition; a negative one is refused with
		// the partition, so it reaches the open as a peer's record instead.
		forged, e := forgeSize(t, bundle.Scatter[1], size)
		if size < 0 {
			n := &Node{backend: NewRAMBackend(), view: member.NewView(member.StaticMap(1))}
			if _, err := n.loadPartition(forged); err == nil || !strings.Contains(err.Error(), e.Path) || n.backend.Len() != 0 {
				t.Fatalf("a %d-byte entry loaded: err %v, %d objects in the backend", size, err, n.backend.Len())
			}
			forged = bundle.Scatter[1]
		}
		for _, ranks := range []int{1, 2} {
			err := mpi.Run(ranks, func(c *mpi.Comm) error {
				part := forged // the last rank holds the object; rank 0 reads it
				if c.Rank() != ranks-1 {
					part = bundle.Scatter[0]
				}
				node, err := Mount(c, [][]byte{part}, nil, Options{})
				if err != nil {
					return err
				}
				defer node.Close()
				if c.Rank() != 0 {
					return nil
				}
				if size < 0 {
					forgeRecord(node, e.Path, size)
				}
				return readForged(node, e.Path, len(e.Data))
			})
			if err != nil {
				t.Fatalf("size %d, %d rank(s): %v", size, ranks, err)
			}
		}
	}
}

// FuzzOpenPartition loads any blob pack.Parse accepts into a hand-built
// one-rank node and opens every entry, the way a mount and its reader
// would. Nothing may panic; nothing may stay in flight or pinned; and the
// node may allocate no more than a small multiple of the blob, plus what
// the entries that opened decoded to, plus the decoders' working state:
// the decode worker's scratch grows once to the Huffman tables and
// buffers a stream asks for (lzd's two tables alone reach 256 KiB).
func FuzzOpenPartition(f *testing.F) {
	const decoderState = 1 << 20
	bundle, _ := buildBundle(f, dataset.EM, 3, 1, 1<<10, nil)
	valid := bundle.Scatter[0]
	f.Add(valid)
	for _, size := range forgedSizes {
		forged, _ := forgeSize(f, valid, size)
		f.Add(forged)
	}
	p, err := pack.Parse(valid)
	if err != nil {
		f.Fatal(err)
	}
	entries := append([]pack.Entry(nil), p.Entries...)
	entries[0].CompressorID = 0xFFFF // the retired layered sentinel
	entries[1].Data = entries[1].Data[:len(entries[1].Data)/2]
	odd, err := pack.Marshal(entries)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(odd)

	reg := metrics.NewRegistry()
	f.Fuzz(func(t *testing.T, blob []byte) {
		if _, err := pack.Parse(blob); err != nil {
			return
		}
		n := &Node{
			cache:   NewCache(1<<20, FIFO),
			backend: NewRAMBackend(),
			view:    member.NewView(member.StaticMap(1)),
			names:   make(map[string]uint32),
			dirs:    newDirIndex(),
			writes:  make(map[string][]byte),
			reg:     reg,
		}
		n.instrument()
		var decoded int64
		got := allocated(func() {
			metas, err := n.loadPartition(blob)
			if err != nil {
				return
			}
			for i := range metas {
				n.addMeta(metas[i])
			}
			for i := range metas {
				if file, err := n.Open(metas[i].Path); err == nil {
					decoded += file.Size()
					file.Close()
				}
			}
		})
		if limit := uint64(16*int64(len(blob)) + 2*decoded + decoderState); got > limit {
			t.Fatalf("%d-byte blob (%d bytes decoded) made the node allocate %d bytes", len(blob), decoded, got)
		}
		if n.flightCount() != 0 || n.cache.pinned() != 0 {
			t.Fatalf("opens left %d flights and %d pins", n.flightCount(), n.cache.pinned())
		}
	})
}
