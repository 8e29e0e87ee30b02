package fanstore

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"fanstore/internal/dataset"
	"fanstore/internal/mpi"
	"fanstore/internal/pack"
)

// Coordination tags for multi-rank tests; well away from the store's
// tagFetch/tagRing/tagCtrl range and below tagRespBase.
const (
	tagTestGo   = 7000
	tagTestDone = 7001
)

func sortedPaths(want map[string][]byte) []string {
	paths := make([]string, 0, len(want))
	for p := range want {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// TestBackendsUnit exercises the Backend implementations directly: the
// RAM backend must alias blob bytes (Peek succeeds), the spill backend
// must round-trip the same compressed objects through disk.
func TestBackendsUnit(t *testing.T) {
	bundle, _ := buildBundle(t, dataset.EM, 6, 1, 4<<10, nil)
	blob := bundle.Scatter[0]
	part, err := pack.Parse(blob)
	if err != nil {
		t.Fatal(err)
	}

	ram := NewRAMBackend()
	spill, err := NewSpillBackend(t.TempDir(), "rank0000")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []Backend{ram, spill} {
		if err := b.AddPartition(blob, part); err != nil {
			t.Fatal(err)
		}
		if b.Len() != len(part.Entries) {
			t.Fatalf("Len() = %d, want %d", b.Len(), len(part.Entries))
		}
	}

	for i := range part.Entries {
		e := &part.Entries[i]
		p := cleanPath(e.Path)
		for name, b := range map[string]Backend{"ram": ram, "spill": spill} {
			if !b.Contains(p) {
				t.Fatalf("%s: Contains(%q) = false", name, p)
			}
			id, comp, err := b.Get(p)
			if err != nil {
				t.Fatalf("%s: Get(%q): %v", name, p, err)
			}
			if id != e.CompressorID || !bytes.Equal(comp, e.Data) {
				t.Fatalf("%s: Get(%q) returned wrong object", name, p)
			}
		}
		// Peek is the zero-copy path: RAM-resident aliases only.
		if id, comp, ok := ram.Peek(p); !ok || id != e.CompressorID || !bytes.Equal(comp, e.Data) {
			t.Fatalf("ram: Peek(%q) = %v", p, ok)
		}
		if _, _, ok := spill.Peek(p); ok {
			t.Fatalf("spill: Peek(%q) succeeded; spill objects are not RAM-resident", p)
		}
	}

	// Misses wrap fs.ErrNotExist so the store maps them to rpc.ErrNotFound.
	for name, b := range map[string]Backend{"ram": ram, "spill": spill} {
		if _, _, err := b.Get("no/such/file"); err == nil {
			t.Fatalf("%s: Get on a missing path succeeded", name)
		}
		if b.Contains("no/such/file") {
			t.Fatalf("%s: Contains on a missing path", name)
		}
	}

	// Concurrent spill reads share one *os.File via ReadAt.
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range part.Entries {
				e := &part.Entries[i]
				_, comp, err := spill.Get(cleanPath(e.Path))
				if err != nil {
					errCh <- err
					return
				}
				if !bytes.Equal(comp, e.Data) {
					errCh <- fmt.Errorf("concurrent spill Get(%q): wrong bytes", e.Path)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	if err := spill.Close(); err != nil {
		t.Fatal(err)
	}
	if err := spill.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, _, err := spill.Get(cleanPath(part.Entries[0].Path)); err == nil {
		t.Fatal("spill: Get after Close succeeded")
	}
	if err := ram.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSpillFetchConcurrency drives 8 concurrent openers against a peer
// whose objects live on the spill backend, with the cache disabled so
// every open is a fresh remote fetch and a fresh disk read.
func TestSpillFetchConcurrency(t *testing.T) {
	const ranks, openers, rounds = 2, 8, 3
	bundle, want := buildBundle(t, dataset.EM, 8, ranks, 8<<10, nil)
	owned, err := pack.Parse(bundle.Scatter[1])
	if err != nil {
		t.Fatal(err)
	}
	spillDir := t.TempDir()
	err = mpi.Run(ranks, func(c *mpi.Comm) error {
		opts := Options{CachePolicy: Immediate}
		if c.Rank() == 1 {
			backend, err := NewSpillBackend(spillDir, "rank0001")
			if err != nil {
				return err
			}
			opts.Backend = backend
		}
		node, err := Mount(c, [][]byte{bundle.Scatter[c.Rank()]}, nil, opts)
		if err != nil {
			return err
		}
		defer node.Close()
		if c.Rank() != 0 {
			return nil // Close barriers until rank 0 finishes reading
		}
		var wg sync.WaitGroup
		errCh := make(chan error, openers)
		for g := 0; g < openers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				// Each opener walks the peer's files from its own offset
				// so concurrent opens mostly target distinct paths.
				for i := 0; i < rounds*len(owned.Entries); i++ {
					p := owned.Entries[(g+i)%len(owned.Entries)].Path
					got, err := node.ReadFile(p)
					if err != nil {
						errCh <- fmt.Errorf("opener %d: %s: %w", g, p, err)
						return
					}
					if !bytes.Equal(got, want[p]) {
						errCh <- fmt.Errorf("opener %d: %s: content mismatch", g, p)
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
		if st := read(t, node); st.counter("fanstore.opens.remote") == 0 || st.counter("rpc.client.calls") == 0 {
			return fmt.Errorf("no remote traffic recorded: %+v", st)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// gateBackend blocks the first Get of one path until released, so tests
// can hold a daemon worker mid-request deterministically.
type gateBackend struct {
	Backend
	slow    string
	started chan struct{}
	release chan struct{}
	once    sync.Once
}

func (g *gateBackend) Get(path string) (uint16, []byte, error) {
	if path == g.slow {
		g.once.Do(func() { close(g.started) })
		<-g.release
	}
	return g.Backend.Get(path)
}

// TestDaemonConcurrentUnderStall is the acceptance test for the worker
// pool: with rank 0's daemon stalled on a slow spill read, peers' fetches
// must still be served concurrently (in-service > 1), which the old
// serial serve loop could not do.
func TestDaemonConcurrentUnderStall(t *testing.T) {
	const ranks, openers, opens = 4, 8, 4
	bundle, want := buildBundle(t, dataset.Language, 9, 1, 4<<10, nil)
	paths := sortedPaths(want)
	slow, fast := paths[0], paths[1:]
	spillDir := t.TempDir()
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		opts := Options{CachePolicy: Immediate}
		var parts [][]byte
		var gate *gateBackend
		if c.Rank() == 0 {
			inner, err := NewSpillBackend(spillDir, "rank0000")
			if err != nil {
				return err
			}
			gate = &gateBackend{
				Backend: inner,
				slow:    cleanPath(slow),
				started: make(chan struct{}),
				release: make(chan struct{}),
			}
			opts.Backend = gate
			parts = [][]byte{bundle.Scatter[0]}
		}
		node, err := Mount(c, parts, nil, opts)
		if err != nil {
			return err
		}
		defer node.Close()
		switch c.Rank() {
		case 0:
			<-gate.started // a worker is now stalled inside the spill read
			for _, dst := range []int{2, 3} {
				if err := c.Send(dst, tagTestGo, nil); err != nil {
					return err
				}
			}
			for i := 0; i < 2; i++ {
				if _, _, err := c.Recv(mpi.AnySource, tagTestDone); err != nil {
					return err
				}
			}
			st := read(t, node)
			close(gate.release)
			if st.gauge("rpc.server.inservice").Value < 1 {
				return fmt.Errorf("stalled request not in service: %+v", st)
			}
			if st.gauge("rpc.server.inservice").Max <= 1 {
				return fmt.Errorf("daemon served serially under stall: %+v", st)
			}
			if wantServed := int64(2 * openers * opens); st.counter("rpc.server.served") < wantServed {
				return fmt.Errorf("served %d fast fetches, want >= %d", st.counter("rpc.server.served"), wantServed)
			}
			return nil
		case 1:
			// The opener that hits the stalled object: it must still get
			// correct bytes once the gate opens.
			got, err := node.ReadFile(slow)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, want[slow]) {
				return fmt.Errorf("%s: content mismatch after stall", slow)
			}
			return nil
		default:
			if _, _, err := c.Recv(0, tagTestGo); err != nil {
				return err
			}
			var wg sync.WaitGroup
			errCh := make(chan error, openers)
			for g := 0; g < openers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					p := fast[g%len(fast)]
					for i := 0; i < opens; i++ {
						got, err := node.ReadFile(p)
						if err != nil {
							errCh <- err
							return
						}
						if !bytes.Equal(got, want[p]) {
							errCh <- fmt.Errorf("%s: content mismatch", p)
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
			return c.Send(0, tagTestDone, nil)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// failBackend serves metadata and partitions normally but errors every
// Get, simulating a rank whose local storage has gone bad.
type failBackend struct {
	Backend
}

func (f *failBackend) Get(path string) (uint16, []byte, error) {
	return 0, nil, errors.New("injected backend failure")
}

func (f *failBackend) Peek(path string) (uint16, []byte, bool) {
	return 0, nil, false
}

// TestReplicaFailover is the acceptance test for replica-aware routing:
// when the owner's backend errors, fetches fail over to the replica rank
// and reads still succeed.
func TestReplicaFailover(t *testing.T) {
	const ranks = 3
	bundle, want := buildBundle(t, dataset.EM, 6, 1, 4<<10, nil)
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		opts := Options{}
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
		if c.Rank() == 0 {
			for p, data := range want {
				got, err := node.ReadFile(p)
				if err != nil {
					return fmt.Errorf("%s: %w", p, err)
				}
				if !bytes.Equal(got, data) {
					return fmt.Errorf("%s: content mismatch", p)
				}
			}
			st := read(t, node)
			if st.counter("fanstore.failovers") < 1 {
				return fmt.Errorf("no failovers recorded: %+v", st)
			}
			if st.counter("fanstore.opens.remote") != int64(len(want)) {
				return fmt.Errorf("remote opens %d, want %d", st.counter("fanstore.opens.remote"), len(want))
			}
		}
		if err := node.Close(); err != nil {
			return err
		}
		st := read(t, node)
		switch c.Rank() {
		case 1:
			if st.counter("rpc.server.errors") < 1 {
				return fmt.Errorf("owner never reported its broken backend: %+v", st)
			}
		case 2:
			if st.counter("rpc.server.served") != int64(len(want)) {
				return fmt.Errorf("replica served %d, want %d", st.counter("rpc.server.served"), len(want))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReplicaRoutingSpread is the acceptance test for routing rotation:
// with a healthy owner and one replica, repeated fetches must spread
// across both peers instead of hammering the owner.
func TestReplicaRoutingSpread(t *testing.T) {
	const ranks, rounds = 3, 2
	bundle, want := buildBundle(t, dataset.ImageNet, 8, 1, 4<<10, nil)
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		opts := Options{CachePolicy: Immediate}
		var parts [][]byte
		switch c.Rank() {
		case 1:
			parts = [][]byte{bundle.Scatter[0]}
		case 2:
			opts.Replicas = [][]byte{bundle.Scatter[0]}
		}
		node, err := Mount(c, parts, nil, opts)
		if err != nil {
			return err
		}
		defer node.Close()
		if c.Rank() == 0 {
			for i := 0; i < rounds; i++ {
				for p, data := range want {
					got, err := node.ReadFile(p)
					if err != nil {
						return err
					}
					if !bytes.Equal(got, data) {
						return fmt.Errorf("%s: content mismatch", p)
					}
				}
			}
			st := read(t, node)
			if st.counter("fanstore.opens.remote") != int64(rounds*len(want)) {
				return fmt.Errorf("remote opens %d, want %d", st.counter("fanstore.opens.remote"), rounds*len(want))
			}
			if st.counter("fanstore.failovers") != 0 {
				return fmt.Errorf("unexpected failovers with healthy peers: %+v", st)
			}
		}
		if err := node.Close(); err != nil {
			return err
		}
		if c.Rank() != 0 {
			if served := read(t, node).counter("rpc.server.served"); served == 0 {
				return fmt.Errorf("rank %d served no traffic; routing did not spread", c.Rank())
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRingReplicateUneven checks the interleaved ring exchange when ranks
// contribute different partition counts (including zero).
func TestRingReplicateUneven(t *testing.T) {
	blobs := [][]byte{
		bytes.Repeat([]byte{0xAA}, 3<<10),
		bytes.Repeat([]byte{0xBB}, 1<<10),
		bytes.Repeat([]byte{0xCC}, 2<<10),
	}
	err := mpi.Run(2, func(c *mpi.Comm) error {
		var mine [][]byte
		if c.Rank() == 0 {
			mine = blobs
		}
		got, err := RingReplicate(c, mine)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if len(got) != 0 {
				return fmt.Errorf("rank 0 received %d blobs, want 0", len(got))
			}
			return nil
		}
		if len(got) != len(blobs) {
			return fmt.Errorf("rank 1 received %d blobs, want %d", len(got), len(blobs))
		}
		for i := range blobs {
			if !bytes.Equal(got[i], blobs[i]) {
				return fmt.Errorf("blob %d mismatch", i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestZeroCopyStats checks that store-coded (uncompressed) datasets go
// through the zero-copy passthrough and that the branch keeps full stats
// parity with the decompressing path.
func TestZeroCopyStats(t *testing.T) {
	g := dataset.Generator{Kind: dataset.EM, Seed: 7, Size: 4 << 10}
	const nFiles = 5
	files := make([]pack.InputFile, nFiles)
	var total int64
	paths := make([]string, nFiles)
	wantBytes := make(map[string][]byte, nFiles)
	for i := range files {
		f := g.File(i, nFiles)
		files[i] = pack.InputFile{Path: f.Path, Data: f.Data}
		paths[i] = f.Path
		wantBytes[f.Path] = f.Data
		total += int64(len(f.Data))
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
		for _, p := range paths {
			got, err := node.ReadFile(p)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, wantBytes[p]) {
				return fmt.Errorf("%s: content mismatch", p)
			}
		}
		st := read(t, node)
		if st.counter("fanstore.opens.zerocopy") != nFiles {
			return fmt.Errorf("zero-copy opens %d, want %d", st.counter("fanstore.opens.zerocopy"), nFiles)
		}
		if st.counter("fanstore.opens.local") != nFiles || st.counter("fanstore.bytes.read") != total || st.counter("fanstore.decompresses") != 0 {
			return fmt.Errorf("passthrough stats gap: %+v", st)
		}
		if n := st.hist("fanstore.open.latency").Count; n != nFiles {
			return fmt.Errorf("open histogram count %d, want %d", n, nFiles)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCloseAfterWorldAbort guards the Node.Close shutdown fix: Close must
// terminate the daemon goroutines even when the closing barrier fails
// because the world already aborted.
func TestCloseAfterWorldAbort(t *testing.T) {
	bundle, _ := buildBundle(t, dataset.Language, 4, 2, 1<<10, nil)
	boom := errors.New("peer died")
	var closeErr error
	closed := make(chan struct{})
	err := mpi.Run(2, func(c *mpi.Comm) error {
		node, err := Mount(c, [][]byte{bundle.Scatter[c.Rank()]}, nil, Options{})
		if err != nil {
			return err
		}
		if c.Rank() == 1 {
			return boom // abort without closing; rank 0 must still shut down
		}
		done := make(chan struct{})
		go func() {
			closeErr = node.Close()
			close(done)
		}()
		select {
		case <-done:
			close(closed)
		case <-time.After(5 * time.Second):
			return errors.New("Close hung after world abort")
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("world error = %v, want %v", err, boom)
	}
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Fatal("rank 0 never completed Close")
	}
	_ = closeErr // Close may report the aborted barrier; hanging is the bug
}
