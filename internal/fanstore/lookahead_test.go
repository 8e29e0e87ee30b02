package fanstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"fanstore/internal/dataset"
	"fanstore/internal/mpi"
	"fanstore/internal/pack"
	"fanstore/internal/rpc"
)

// ownedPaths lists the file paths packed into one scatter partition.
func ownedPaths(t testing.TB, part []byte) []string {
	t.Helper()
	p, err := pack.Parse(part)
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, len(p.Entries))
	for i := range p.Entries {
		paths[i] = p.Entries[i].Path
	}
	return paths
}

// TestPrefetchStagesRemoteWindow is the tentpole acceptance test: rank 0
// announces its upcoming window of rank-1-owned files via Prefetch, one
// batched FetchMany stages them unpinned into the cache, and the
// subsequent opens are all served locally — zero on-demand remote
// fetches, every open counted as prefetched, no pins left behind.
func TestPrefetchStagesRemoteWindow(t *testing.T) {
	bundle, want := buildBundle(t, dataset.ImageNet, 12, 2, 4<<10, nil)
	err := mpi.Run(2, func(c *mpi.Comm) error {
		node, err := Mount(c, [][]byte{bundle.Scatter[c.Rank()]}, nil, Options{CacheBytes: 1 << 20})
		if err != nil {
			return err
		}
		defer node.Close()
		if c.Rank() != 0 {
			return nil // serve until rank 0's Close barrier
		}
		window := ownedPaths(t, bundle.Scatter[1])
		if staged := node.Prefetch(window); staged != len(window) {
			return fmt.Errorf("staged %d of %d", staged, len(window))
		}
		for _, p := range window {
			got, err := node.ReadFile(p)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, want[p]) {
				return fmt.Errorf("%s: content mismatch", p)
			}
		}
		st := read(t, node)
		if st.counter("fanstore.fetch.batched") < 1 {
			return fmt.Errorf("no batched fetches issued: %+v", st)
		}
		if st.counter("fanstore.opens.remote") != 0 {
			return fmt.Errorf("%d opens fell back to on-demand fetch", st.counter("fanstore.opens.remote"))
		}
		if st.counter("fanstore.cache.prefetched_opens") != int64(len(window)) {
			return fmt.Errorf("prefetched opens %d, want %d", st.counter("fanstore.cache.prefetched_opens"), len(window))
		}
		if node.cache.pinned() != 0 {
			return fmt.Errorf("%d entries still pinned after close", node.cache.pinned())
		}
		if st.counter("fanstore.cache.double_releases") != 0 {
			return fmt.Errorf("%d double releases", st.counter("fanstore.cache.double_releases"))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPrefetchSkipsSettledPaths checks the admission filter: local,
// unknown, and already-staged paths never generate fetch traffic.
func TestPrefetchSkipsSettledPaths(t *testing.T) {
	bundle, _ := buildBundle(t, dataset.EM, 8, 2, 2<<10, nil)
	err := mpi.Run(2, func(c *mpi.Comm) error {
		node, err := Mount(c, [][]byte{bundle.Scatter[c.Rank()]}, nil, Options{CacheBytes: 1 << 20})
		if err != nil {
			return err
		}
		defer node.Close()
		if c.Rank() != 0 {
			return nil
		}
		local := ownedPaths(t, bundle.Scatter[0])
		if staged := node.Prefetch(local); staged != 0 {
			return fmt.Errorf("staged %d local files", staged)
		}
		if staged := node.Prefetch([]string{"no/such/file", ""}); staged != 0 {
			return fmt.Errorf("staged %d unknown files", staged)
		}
		if st := read(t, node); st.counter("fanstore.fetch.batched") != 0 {
			return fmt.Errorf("filtered windows still issued %d fetches", st.counter("fanstore.fetch.batched"))
		}
		remote := ownedPaths(t, bundle.Scatter[1])
		if staged := node.Prefetch(remote); staged != len(remote) {
			return fmt.Errorf("staged %d of %d remote files", staged, len(remote))
		}
		calls := read(t, node).counter("fanstore.fetch.batched")
		// The window is already staged: announcing it again is free.
		if staged := node.Prefetch(remote); staged != 0 {
			return fmt.Errorf("re-staged %d already-cached files", staged)
		}
		if got := read(t, node).counter("fanstore.fetch.batched"); got != calls {
			return fmt.Errorf("cached window issued %d extra fetches", got-calls)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFetchOverWire drives the one object-fetch request through a live
// daemon with the production encoder, over every value its header takes:
// no map version / the server's / a stale one, a batch of one / of three
// with the middle key absent / of one absent key. Present keys come back
// ItemOK with the whole object framed behind its compressor ID, the miss
// comes back per item — not-found, or stale only under a non-zero
// mismatched version — without failing the call, and a request with
// nothing to serve maps to the matching rpc error. An op byte the daemon
// does not serve, the retired 5 among them, is refused.
func TestFetchOverWire(t *testing.T) {
	bundle, want := buildBundle(t, dataset.EM, 6, 2, 4<<10, nil)
	part, err := pack.Parse(bundle.Scatter[1])
	if err != nil {
		t.Fatal(err)
	}
	stored := make(map[string]*pack.Entry, len(part.Entries))
	for i := range part.Entries {
		stored[part.Entries[i].Path] = &part.Entries[i]
	}
	err = mpi.Run(2, func(c *mpi.Comm) error {
		node, err := Mount(c, [][]byte{bundle.Scatter[c.Rank()]}, nil, Options{})
		if err != nil {
			return err
		}
		defer node.Close()
		if c.Rank() != 0 {
			return nil
		}
		remote := ownedPaths(t, bundle.Scatter[1])
		const absent = "missing/object"
		current := node.MapVersion() // a static mount: both ranks hold the same map
		for _, ver := range []uint64{0, current, current + 7} {
			missStatus, missErr := rpc.ItemNotFound, rpc.ErrNotFound
			if ver != 0 && ver != current {
				missStatus, missErr = rpc.ItemStale, rpc.ErrStale
			}
			for _, keys := range [][]string{{remote[0]}, {remote[0], absent, remote[1]}, {absent}} {
				name := fmt.Sprintf("v%d keys %v", ver, keys)
				resp, err := node.client.Call(1, encodeFetch(ver, keys))
				if len(keys) == 1 && keys[0] == absent {
					if !errors.Is(err, missErr) {
						return fmt.Errorf("%s: err %v, want %v", name, err, missErr)
					}
					continue
				}
				if err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
				items, err := rpc.DecodeItems(resp)
				if err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
				if len(items) != len(keys) {
					return fmt.Errorf("%s: got %d items", name, len(items))
				}
				for i, key := range keys {
					it := items[i]
					if key == absent {
						if it.Status != missStatus || len(it.Payload) != 0 {
							return fmt.Errorf("%s: miss came back %+v, want status %d", name, it, missStatus)
						}
						continue
					}
					e := stored[key]
					if it.Status != rpc.ItemOK || len(it.Payload) != 2+len(e.Data) {
						return fmt.Errorf("%s: item %d status %d with %d bytes, want OK with %d", name, i, it.Status, len(it.Payload), 2+len(e.Data))
					}
					id := uint16(it.Payload[0]) | uint16(it.Payload[1])<<8
					if id != e.CompressorID {
						return fmt.Errorf("%s: item %d framed under compressor %d, stored under %d", name, i, id, e.CompressorID)
					}
					_, o, _ := node.resolve(key)
					data, err := node.decompress(o.meta, id, it.Payload[2:])
					if err != nil {
						return fmt.Errorf("%s: item %d: %w", name, i, err)
					}
					if !bytes.Equal(data, want[key]) {
						return fmt.Errorf("%s: item %d decoded to different bytes", name, i)
					}
				}
			}
		}
		for _, op := range []byte{5, 0xff} {
			if _, err := node.client.Call(1, append([]byte{op}, remote[0]...)); err == nil || !strings.Contains(err.Error(), "unknown fetch op") {
				return fmt.Errorf("op %d: err %v, want an unknown-op refusal", op, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPrefetchFailsOverToReplica mirrors TestReplicaFailover for the
// batched path: when the owner's backend errors per item, the prefetch
// round retries the failed targets against the replica and still stages
// the full window.
func TestPrefetchFailsOverToReplica(t *testing.T) {
	const ranks = 3
	bundle, want := buildBundle(t, dataset.EM, 6, 1, 4<<10, nil)
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		opts := Options{CacheBytes: 1 << 20}
		var parts [][]byte
		switch c.Rank() {
		case 1: // owner, with broken storage
			opts.Backend = &failBackend{Backend: NewRAMBackend()}
			parts = [][]byte{bundle.Scatter[0]}
		case 2: // replica, announced at mount
			opts.Replicas = [][]byte{bundle.Scatter[0]}
		}
		node, err := Mount(c, parts, nil, opts)
		if err != nil {
			return err
		}
		defer node.Close()
		if c.Rank() != 0 {
			return nil
		}
		window := ownedPaths(t, bundle.Scatter[0])
		if staged := node.Prefetch(window); staged != len(window) {
			return fmt.Errorf("staged %d of %d despite a live replica", staged, len(window))
		}
		for _, p := range window {
			got, err := node.ReadFile(p)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, want[p]) {
				return fmt.Errorf("%s: content mismatch", p)
			}
		}
		st := read(t, node)
		if st.counter("fanstore.opens.remote") != 0 {
			return fmt.Errorf("%d opens fell back to on-demand fetch", st.counter("fanstore.opens.remote"))
		}
		if st.counter("fanstore.cache.prefetched_opens") != int64(len(window)) {
			return fmt.Errorf("prefetched opens %d, want %d", st.counter("fanstore.cache.prefetched_opens"), len(window))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestZeroCopyCloseHoldsNoPin guards the pin-accounting fix: zero-copy
// fds never entered the cache, so Close must not Release them — before
// the fix every such Close was a double release against the pool.
func TestZeroCopyCloseHoldsNoPin(t *testing.T) {
	g := dataset.Generator{Kind: dataset.EM, Seed: 11, Size: 2 << 10}
	const nFiles = 4
	files := make([]pack.InputFile, nFiles)
	for i := range files {
		f := g.File(i, nFiles)
		files[i] = pack.InputFile{Path: f.Path, Data: f.Data}
	}
	bundle, err := pack.Build(files, pack.BuildOptions{Partitions: 1, Compressor: "memcpy"})
	if err != nil {
		t.Fatal(err)
	}
	err = mpi.Run(1, func(c *mpi.Comm) error {
		node, err := Mount(c, [][]byte{bundle.Scatter[0]}, nil, Options{})
		if err != nil {
			return err
		}
		defer node.Close()
		for pass := 0; pass < 3; pass++ {
			for i := range files {
				f, err := node.Open(files[i].Path)
				if err != nil {
					return err
				}
				if err := f.Close(); err != nil {
					return err
				}
			}
		}
		st := read(t, node)
		if st.counter("fanstore.opens.zerocopy") != 3*nFiles {
			return fmt.Errorf("zero-copy opens %d, want %d", st.counter("fanstore.opens.zerocopy"), 3*nFiles)
		}
		if st.counter("fanstore.cache.double_releases") != 0 {
			return fmt.Errorf("zero-copy closes produced %d double releases", st.counter("fanstore.cache.double_releases"))
		}
		if node.cache.Stats().Entries != 0 || node.cache.pinned() != 0 {
			return fmt.Errorf("zero-copy path touched the cache: %+v", node.cache.Stats())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentOpenCloseStormPinInvariants hammers a tiny Immediate
// cache with concurrent open/read/close cycles and checks the refcount
// invariants afterwards: no pins survive the storm, used stays at zero
// (Immediate drops at refs==0), and no Close ever double-released.
func TestConcurrentOpenCloseStormPinInvariants(t *testing.T) {
	const nFiles, fileSize = 8, 2 << 10
	bundle, want := buildBundle(t, dataset.Language, nFiles, 1, fileSize, nil)
	err := mpi.Run(1, func(c *mpi.Comm) error {
		// Capacity of ~2 files keeps eviction pressure constant.
		node, err := Mount(c, [][]byte{bundle.Scatter[0]}, nil, Options{
			CacheBytes:  2 * fileSize,
			CachePolicy: Immediate,
		})
		if err != nil {
			return err
		}
		defer node.Close()
		paths := ownedPaths(t, bundle.Scatter[0])
		var wg sync.WaitGroup
		errCh := make(chan error, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					p := paths[(g*7+i)%len(paths)]
					f, err := node.Open(p)
					if err != nil {
						errCh <- err
						return
					}
					buf := make([]byte, f.Size())
					n, err := f.ReadAt(buf, 0)
					if err != nil && n != len(want[p]) {
						errCh <- fmt.Errorf("%s: read %d: %v", p, n, err)
						f.Close()
						return
					}
					if !bytes.Equal(buf[:n], want[p]) {
						errCh <- fmt.Errorf("%s: content mismatch under storm", p)
						f.Close()
						return
					}
					if err := f.Close(); err != nil {
						errCh <- err
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			return err
		}
		st := read(t, node)
		if node.cache.pinned() != 0 {
			return fmt.Errorf("%d pins survived the storm", node.cache.pinned())
		}
		if st.counter("fanstore.cache.double_releases") != 0 {
			return fmt.Errorf("%d double releases under storm", st.counter("fanstore.cache.double_releases"))
		}
		if node.cache.Stats().Used != 0 {
			return fmt.Errorf("immediate cache still holds %d bytes after quiesce", node.cache.Stats().Used)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBatchedFetchAnswersAPrefix: a batched fetch whose objects exceed
// rpc.DefaultBatchBytes on the wire is answered with the longest prefix
// of its keys whose frame — the items' count and headers and the status
// trailer included — fits (so no frame the buffer pool keeps grows past
// the bound), and Prefetch asks again for the rest until every object
// is staged. The second row's sixteen objects fill the bound exactly
// with their payloads alone, so counting the framing is what keeps the
// answer in the bound's pool class. In the third, rank 1 has written a
// file that fills the bound behind a small object if its item is counted
// as a dataset object's: only the uvarint length of its "store" framing
// is over, so that header must be counted too.
func TestBatchedFetchAnswersAPrefix(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fill  bool // rank 1's payloads total rpc.DefaultBatchBytes exactly
		build func(t *testing.T) (scatter [][]byte, want map[string][]byte)
		// written is the file rank 1 writes before the fetches, asked for
		// after its partition's objects; nil for none.
		written func(small int) (path string, data []byte)
	}{
		{"256 KiB lzsse8 objects", false, func(t *testing.T) ([][]byte, map[string][]byte) {
			bundle, want := buildBundle(t, dataset.ImageNet, 32, 2, 256<<10, nil)
			return bundle.Scatter, want
		}, nil},
		{"a written file fills the bound", false, func(t *testing.T) ([][]byte, map[string][]byte) {
			small := pack.InputFile{Path: "rank1/small.bin", Data: bytes.Repeat([]byte("memcpy"), 200)}
			other := pack.InputFile{Path: "rank0/only.bin", Data: []byte("rank 0's")}
			var scatter [][]byte
			for _, f := range []pack.InputFile{other, small} {
				b, err := pack.Build([]pack.InputFile{f}, pack.BuildOptions{Partitions: 1, Compressor: "memcpy"})
				if err != nil {
					t.Fatal(err)
				}
				scatter = append(scatter, b.Scatter[0])
			}
			return scatter, map[string][]byte{small.Path: small.Data, other.Path: other.Data}
		}, func(small int) (string, []byte) {
			// 2+len per item, as a dataset object is counted, and +1 for
			// the status trailer: the two items end exactly at the bound.
			data := make([]byte, rpc.DefaultBatchBytes-1-rpc.ItemsSize(2, 2+small+2))
			rand.New(rand.NewSource(41)).Read(data)
			return "out/fill.bin", data
		}},
		{"16 payloads fill the bound", true, func(t *testing.T) ([][]byte, map[string][]byte) {
			// The store codec's framing, measured at the size it frames:
			// each object is its bytes plus a length header.
			const probeSize = rpc.DefaultBatchBytes / 16
			probe, err := pack.Build([]pack.InputFile{{Path: "probe", Data: make([]byte, probeSize)}}, pack.BuildOptions{Partitions: 1, Compressor: "memcpy"})
			if err != nil {
				t.Fatal(err)
			}
			part, err := pack.Parse(probe.Scatter[0])
			if err != nil {
				t.Fatal(err)
			}
			header := len(part.Entries[0].Data) - probeSize
			size := rpc.DefaultBatchBytes/16 - 2 - header // 2: the compressor ID in each payload
			want := make(map[string][]byte)
			var served []pack.InputFile
			rng := rand.New(rand.NewSource(35))
			for i := 0; i < 16; i++ {
				data := make([]byte, size)
				rng.Read(data)
				f := pack.InputFile{Path: fmt.Sprintf("fill/%02d.bin", i), Data: data}
				served, want[f.Path] = append(served, f), data
			}
			other := pack.InputFile{Path: "rank0/only.bin", Data: []byte("rank 0's")}
			want[other.Path] = other.Data
			var scatter [][]byte
			for _, files := range [][]pack.InputFile{{other}, served} {
				b, err := pack.Build(files, pack.BuildOptions{Partitions: 1, Compressor: "memcpy"})
				if err != nil {
					t.Fatal(err)
				}
				scatter = append(scatter, b.Scatter[0])
			}
			return scatter, want
		}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			scatter, want := tc.build(t)
			part, err := pack.Parse(scatter[1])
			if err != nil {
				t.Fatal(err)
			}
			var keys []string
			var payloads []int // each item's payload as framed
			for _, e := range part.Entries {
				keys, payloads = append(keys, e.Path), append(payloads, 2+len(e.Data))
			}
			var wpath string
			if tc.written != nil {
				var wdata []byte
				wpath, wdata = tc.written(len(part.Entries[len(part.Entries)-1].Data))
				want[wpath] = wdata
				// A written file is framed as "store": its uvarint length, then its bytes.
				var uv [binary.MaxVarintLen64]byte
				keys, payloads = append(keys, wpath), append(payloads, 2+binary.PutUvarint(uv[:], uint64(len(wdata)))+len(wdata))
			}
			fit, size := 0, 0
			for i, payload := range payloads {
				// +1: the status trailer of the received frame.
				if size += payload; fit == i && (i == 0 || rpc.ItemsSize(i+1, size)+1 <= rpc.DefaultBatchBytes) {
					fit++
				}
			}
			if fit == len(keys) {
				t.Fatalf("%d objects of %d B all fit in %d B: the test asks nothing", len(keys), size, rpc.DefaultBatchBytes)
			}
			if tc.fill && size != rpc.DefaultBatchBytes {
				t.Fatalf("16 payloads of %d B in all, want exactly %d", size, rpc.DefaultBatchBytes)
			}
			err = mpi.Run(2, func(c *mpi.Comm) error {
				node, err := Mount(c, [][]byte{scatter[c.Rank()]}, nil, Options{CacheBytes: 64 << 20})
				if err != nil {
					return err
				}
				defer node.Close()
				if wpath != "" && c.Rank() == 1 {
					if err := node.WriteFile(wpath, want[wpath]); err != nil {
						return err
					}
				}
				if err := c.Barrier(); err != nil {
					return err
				}
				if c.Rank() != 0 {
					return nil
				}
				// Ask until every key is answered: each answer is a prefix
				// of what is left, and each frame — as received, status
				// trailer included — stays within the bound.
				for left, calls := keys, 0; len(left) > 0; calls++ {
					resp, err := node.client.Call(1, encodeFetch(0, left))
					if err != nil {
						return err
					}
					if frame := len(resp) + 1; frame > rpc.DefaultBatchBytes {
						return fmt.Errorf("answer %d is a %d B frame, %d B over the %d B bound", calls, frame, frame-rpc.DefaultBatchBytes, rpc.DefaultBatchBytes)
					}
					items, err := rpc.DecodeItems(resp)
					if err != nil {
						return err
					}
					if calls == 0 && len(items) != fit {
						return fmt.Errorf("%d keys answered with %d items, want the %d that fit in %d B",
							len(keys), len(items), fit, rpc.DefaultBatchBytes)
					}
					if len(items) == 0 {
						return fmt.Errorf("answer %d carries no item", calls)
					}
					left = left[len(items):]
				}
				if staged := node.Prefetch(keys); staged != len(keys) {
					return fmt.Errorf("Prefetch staged %d of %d objects", staged, len(keys))
				}
				for _, key := range keys {
					data, err := node.ReadFile(key)
					if err != nil {
						return err
					}
					if !bytes.Equal(data, want[key]) {
						return fmt.Errorf("%s: wrong bytes", key)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
