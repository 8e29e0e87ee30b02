package fanstore

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"fanstore/internal/dataset"
	"fanstore/internal/decomp"
	"fanstore/internal/mpi"
	"fanstore/internal/pack"
)

// buildLayeredBundle packs a synthetic dataset with the layered container
// codec: every object splits into `layers` bit-plane layers over the
// given inner codec, so any container prefix decodes to a full-length
// lower-fidelity record.
func buildLayeredBundle(t testing.TB, kind dataset.Kind, nFiles, nParts, fileSize, layers int) (*pack.Bundle, map[string][]byte) {
	t.Helper()
	g := dataset.Generator{Kind: kind, Seed: 37, Size: fileSize}
	files := make([]pack.InputFile, nFiles)
	want := make(map[string][]byte, nFiles)
	for i := range files {
		f := g.File(i, nFiles)
		files[i] = pack.InputFile{Path: f.Path, Data: f.Data}
		want[f.Path] = f.Data
	}
	bundle, err := pack.Build(files, pack.BuildOptions{
		Partitions: nParts,
		Compressor: "lz4",
		Layers:     layers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return bundle, want
}

// TestFidelityBudgetedFetchEndToEnd drives the whole bandwidth-
// proportional read path: a base-layer epoch fetches only container
// prefixes (bytes saved accrue, entries cache at level 1), and the
// following full-fidelity epoch upgrades in place — range-fetching the
// missing refinement extents rather than refetching — and ends
// byte-identical to the originals.
func TestFidelityBudgetedFetchEndToEnd(t *testing.T) {
	const nFiles, fileSize, layers = 8, 8 << 10, 4
	bundle, want := buildLayeredBundle(t, dataset.EM, nFiles, 2, fileSize, layers)
	err := mpi.Run(2, func(c *mpi.Comm) error {
		node, err := Mount(c, [][]byte{bundle.Scatter[c.Rank()]}, nil, Options{CacheBytes: 1 << 20})
		if err != nil {
			return err
		}
		defer node.Close()
		if c.Rank() != 0 {
			return nil
		}
		remote := ownedPaths(t, bundle.Scatter[1])

		// Epoch at the base layer: every remote read returns full-length
		// bytes (the XOR prefix contract) while the fetch moves only the
		// level-1 prefix.
		node.SetFidelity(1)
		for _, p := range remote {
			got, err := node.ReadFile(p)
			if err != nil {
				return fmt.Errorf("base epoch %s: %w", p, err)
			}
			if len(got) != len(want[p]) {
				return fmt.Errorf("base epoch %s: got %d bytes, want %d", p, len(got), len(want[p]))
			}
			if fid, ok := node.cache.entryFidelity(cleanPath(p)); !ok || fid != 1 {
				return fmt.Errorf("base epoch %s: cached at fidelity %d (ok=%v), want 1", p, fid, ok)
			}
		}
		st := read(t, node)
		if st.counter("fanstore.fetch.bytes.saved") == 0 {
			return fmt.Errorf("base epoch saved no bytes")
		}
		if st.counter("fanstore.fetch.upgrades") != 0 {
			return fmt.Errorf("base epoch counted %d upgrades", st.counter("fanstore.fetch.upgrades"))
		}
		baseRemote := st.counter("fanstore.bytes.remote")
		// The budgeted epoch must move at most ~1/3 of the full containers
		// (base layer = 2 of 8 bit-planes here).
		full := int64(0)
		node.mu.RLock()
		for _, p := range remote {
			m := node.meta[cleanPath(p)]
			full += int64(m.LayerPrefix[m.Layers()-1])
		}
		node.mu.RUnlock()
		if baseRemote*3 > full {
			return fmt.Errorf("base epoch fetched %d of %d full bytes, want <= 1/3", baseRemote, full)
		}

		// Full-fidelity epoch: each open upgrades the cached base in place
		// and the final bytes are exact.
		node.SetFidelity(0)
		for _, p := range remote {
			got, err := node.ReadFile(p)
			if err != nil {
				return fmt.Errorf("full epoch %s: %w", p, err)
			}
			if !bytes.Equal(got, want[p]) {
				return fmt.Errorf("full epoch %s: content mismatch after upgrade", p)
			}
			if fid, ok := node.cache.entryFidelity(cleanPath(p)); !ok || fid != FidelityFull {
				return fmt.Errorf("full epoch %s: cached at fidelity %d (ok=%v), want full", p, fid, ok)
			}
		}
		st = read(t, node)
		if st.counter("fanstore.fetch.upgrades") != int64(len(remote)) {
			return fmt.Errorf("full epoch upgraded %d entries, want %d", st.counter("fanstore.fetch.upgrades"), len(remote))
		}
		if node.cache.pinned() != 0 {
			return fmt.Errorf("%d pins leaked", node.cache.pinned())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFidelityPrefetchBudgeted checks the batched half of the budget
// plane: at SetFidelity(1) Prefetch stages a window of level-1 prefixes
// with budgeted batched round trips, the staged entries carry their
// fidelity, and re-announcing the window at the same level is
// suppressed while a higher level is NOT re-staged (upgrades belong to
// the demand path).
func TestFidelityPrefetchBudgeted(t *testing.T) {
	const nFiles, fileSize, layers = 8, 8 << 10, 4
	bundle, want := buildLayeredBundle(t, dataset.ImageNet, nFiles, 2, fileSize, layers)
	err := mpi.Run(2, func(c *mpi.Comm) error {
		node, err := Mount(c, [][]byte{bundle.Scatter[c.Rank()]}, nil, Options{CacheBytes: 1 << 20})
		if err != nil {
			return err
		}
		defer node.Close()
		if c.Rank() != 0 {
			return nil
		}
		window := ownedPaths(t, bundle.Scatter[1])
		node.SetFidelity(1)
		if staged := node.Prefetch(window); staged != len(window) {
			return fmt.Errorf("staged %d of %d", staged, len(window))
		}
		for _, p := range window {
			if fid, ok := node.cache.entryFidelity(cleanPath(p)); !ok || fid != 1 {
				return fmt.Errorf("%s staged at fidelity %d (ok=%v), want 1", p, fid, ok)
			}
		}
		st := read(t, node)
		if st.counter("fanstore.fetch.bytes.saved") == 0 {
			return fmt.Errorf("budgeted prefetch saved no bytes")
		}
		if restaged := node.Prefetch(window); restaged != 0 {
			return fmt.Errorf("re-staged %d targets at the same level", restaged)
		}
		node.SetFidelity(2)
		if restaged := node.Prefetch(window); restaged != 0 {
			return fmt.Errorf("prefetch upgraded %d resident entries", restaged)
		}
		// The demand path still upgrades and delivers exact bytes.
		node.SetFidelity(0)
		for _, p := range window {
			got, err := node.ReadFile(p)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, want[p]) {
				return fmt.Errorf("%s: content mismatch after prefetch+upgrade", p)
			}
		}
		if st := read(t, node); st.counter("fanstore.fetch.upgrades") == 0 {
			return fmt.Errorf("demand opens never upgraded the staged window")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMixedFidelityCoalescingStorm is the budget plane's singleflight
// acceptance test: a storm of level-1 and level-2 opens of one cold
// remote path must resolve as exactly one base fetch plus one upgrade
// range fetch — the level-2 openers join the level-1 flight, wake, miss
// at their level, and exactly one of them leads the upgrade — with a
// single decode job and no pin leaks.
func TestMixedFidelityCoalescingStorm(t *testing.T) {
	const stormers = 8
	bundle, want := buildLayeredBundle(t, dataset.EM, 4, 2, 8<<10, 4)
	err := mpi.Run(2, func(c *mpi.Comm) error {
		opts := Options{CacheBytes: 1 << 20}
		if c.Rank() == 1 {
			// Slow the owner's backend so every storm goroutine is in
			// flight before the base fetch lands.
			opts.Backend = &latencyBackend{Backend: NewRAMBackend(), delay: 50 * time.Millisecond}
		}
		node, err := Mount(c, [][]byte{bundle.Scatter[c.Rank()]}, nil, opts)
		if err != nil {
			return err
		}
		defer node.Close()
		if c.Rank() != 0 {
			return nil
		}
		path := ownedPaths(t, bundle.Scatter[1])[0]
		node.mu.RLock()
		m := node.meta[cleanPath(path)]
		node.mu.RUnlock()

		errCh := make(chan error, 2*stormers)
		var wg sync.WaitGroup
		openAt := func(level uint8, wantLen int) {
			defer wg.Done()
			data, pinned, _, err := node.openBytes(m, level)
			if err != nil {
				errCh <- err
				return
			}
			if len(data) != wantLen {
				errCh <- fmt.Errorf("level %d open: %d bytes, want %d", level, len(data), wantLen)
			}
			if pinned {
				node.cache.Release(m.Path)
			}
		}
		// Level-1 openers first; once their leader's flight is registered
		// the level-2 openers join it mid-air.
		for g := 0; g < stormers; g++ {
			wg.Add(1)
			go openAt(1, len(want[path]))
		}
		for node.flightCount() == 0 {
			time.Sleep(50 * time.Microsecond)
		}
		for g := 0; g < stormers; g++ {
			wg.Add(1)
			go openAt(2, len(want[path]))
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			return err
		}

		st := read(t, node)
		if st.counter("rpc.client.calls") != 2 {
			return fmt.Errorf("storm issued %d fetch calls, want exactly 2 (base + upgrade)", st.counter("rpc.client.calls"))
		}
		if st.counter("fanstore.fetch.upgrades") != 1 {
			return fmt.Errorf("storm ran %d upgrades, want exactly 1", st.counter("fanstore.fetch.upgrades"))
		}
		if st.counter("fanstore.decompresses") != 1 {
			return fmt.Errorf("storm ran %d decode jobs, want exactly 1 (upgrades XOR, not re-decode)", st.counter("fanstore.decompresses"))
		}
		if node.cache.pinned() != 0 {
			return fmt.Errorf("%d pins survived the storm", node.cache.pinned())
		}
		if st.counter("fanstore.cache.double_releases") != 0 {
			return fmt.Errorf("%d double releases", st.counter("fanstore.cache.double_releases"))
		}
		if fid, ok := node.cache.entryFidelity(m.Path); !ok || fid != 2 {
			return fmt.Errorf("entry ended at fidelity %d (ok=%v), want 2", fid, ok)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCacheFidelityUpgradeInvariants pins a base-fidelity entry and
// upgrades it in place while readers churn: the pinned reader's bytes
// must stay intact (the replaced buffer is orphaned to GC, never
// recycled while referenced), fidelity is monotone, and the accounting
// survives a -race storm of mixed-level acquires.
func TestCacheFidelityUpgradeInvariants(t *testing.T) {
	c := NewCache(1<<20, FIFO)
	const path = "plane/obj"

	base := decomp.GetBuf(4 << 10)
	for i := 0; i < 4<<10; i++ {
		base = append(base, byte(i))
	}
	snapshot := append([]byte(nil), base...)

	// Stage at level 1 and pin it — this is the reader mid-open.
	got := c.Insert(path, base, true, 1)
	if fid, _ := c.entryFidelity(path); fid != 1 {
		t.Fatalf("staged fidelity %d, want 1", fid)
	}

	// Upgrade in place while the base is pinned, then churn the buffer
	// pool hard: if the old buffer were recycled mid-upgrade the pinned
	// reader's bytes would be rewritten by the pool's next user.
	upgraded := decomp.GetBuf(4 << 10)
	upgraded = append(upgraded, snapshot...)
	for i := range upgraded {
		upgraded[i] ^= 0xA5
	}
	canon := c.Insert(path, upgraded, true, FidelityFull)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b := decomp.GetBuf(4 << 10)
				b = b[:cap(b)]
				for j := range b {
					b[j] = 0xFF
				}
				decomp.PutBuf(b)
				if data, _, ok := c.Acquire(path, 1); ok {
					_ = data[0]
					c.Release(path)
				}
			}
		}()
	}
	wg.Wait()

	if !bytes.Equal(got, snapshot) {
		t.Fatalf("pinned base bytes were rewritten during the upgrade")
	}
	for i := range canon {
		if canon[i] != snapshot[i]^0xA5 {
			t.Fatalf("upgraded bytes corrupted at %d", i)
		}
	}
	if fid, _ := c.entryFidelity(path); fid != FidelityFull {
		t.Fatalf("fidelity %d after upgrade, want full", fid)
	}
	// A lower-fidelity insert must not downgrade the entry.
	dup := decomp.GetBuf(4 << 10)
	dup = append(dup, snapshot...)
	if c.InsertIdle(path, dup, true, 1) {
		t.Fatalf("idle insert downgraded a full-fidelity entry")
	}
	if fid, _ := c.entryFidelity(path); fid != FidelityFull {
		t.Fatalf("fidelity %d after low-level re-insert, want full", fid)
	}
	// Two pins are held (insert + upgrade-insert both returned pinned
	// canonical data); release both and the entry must recycle cleanly.
	c.Release(path)
	c.Release(path)
	st := c.Stats()
	if st.Pinned != 0 {
		t.Fatalf("%d pins leaked", st.Pinned)
	}
	if st.DoubleReleases != 0 {
		t.Fatalf("%d double releases", st.DoubleReleases)
	}
}

// BenchmarkBudgetedFetch measures a cold remote epoch at full fidelity
// vs. the base layer: the budgeted path fetches only each object's
// level-1 container prefix, so bytes/op on the wire (reported as
// wireB/op) drop roughly with the layer split while the open path stays
// identical.
func BenchmarkBudgetedFetch(b *testing.B) {
	const nFiles, fileSize, layers = 16, 32 << 10, 4
	bundle, _ := buildLayeredBundle(b, dataset.EM, nFiles, 2, fileSize, layers)
	owned, err := pack.Parse(bundle.Scatter[1])
	if err != nil {
		b.Fatal(err)
	}
	paths := make([]string, len(owned.Entries))
	for i := range owned.Entries {
		paths[i] = owned.Entries[i].Path
	}
	for _, bc := range []struct {
		name  string
		level uint8
	}{
		{"full", 0},
		{"base", 1},
	} {
		b.Run(bc.name, func(b *testing.B) {
			err := mpi.Run(2, func(c *mpi.Comm) error {
				opts := Options{CachePolicy: Immediate}
				node, err := Mount(c, [][]byte{bundle.Scatter[c.Rank()]}, nil, opts)
				if err != nil {
					return err
				}
				defer node.Close()
				if c.Rank() != 0 {
					return nil
				}
				node.SetFidelity(bc.level)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := node.ReadFile(paths[i%len(paths)]); err != nil {
						return err
					}
				}
				b.StopTimer()
				st := read(b, node)
				b.ReportMetric(float64(st.counter("fanstore.bytes.remote"))/float64(b.N), "wireB/op")
				b.SetBytes(int64(fileSize))
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
