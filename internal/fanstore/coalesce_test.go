package fanstore

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"fanstore/internal/dataset"
	"fanstore/internal/mpi"
	"fanstore/internal/prefetch"
)

// TestColdOpenStormCoalesces is the singleflight acceptance test: N
// goroutines open the same cold remote path simultaneously, and exactly
// one backend fetch and one decode job must serve all of them — one
// leader, N-1 coalesced waiters — with every pin released cleanly. The
// serving backend is slowed so every storm goroutine is in flight
// before the leader's fetch completes.
func TestColdOpenStormCoalesces(t *testing.T) {
	const goroutines = 16
	bundle, want := buildBundle(t, dataset.EM, 4, 2, 4<<10, nil)
	err := mpi.Run(2, func(c *mpi.Comm) error {
		opts := Options{CacheBytes: 1 << 20}
		if c.Rank() == 1 {
			// Slow the owner's backend: the leader's fetch takes long
			// enough for all storm goroutines to join its flight.
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

		start := make(chan struct{})
		errCh := make(chan error, goroutines)
		var ready, wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			ready.Add(1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				ready.Done()
				<-start
				got, err := node.ReadFile(path)
				if err != nil {
					errCh <- err
					return
				}
				if !bytes.Equal(got, want[path]) {
					errCh <- fmt.Errorf("content mismatch under storm")
				}
			}()
		}
		ready.Wait()
		close(start)
		wg.Wait()
		close(errCh)
		for err := range errCh {
			return err
		}

		st := read(t, node)
		if st.counter("rpc.client.calls") != 1 {
			return fmt.Errorf("storm issued %d fetch calls, want exactly 1", st.counter("rpc.client.calls"))
		}
		if st.counter("fanstore.decompresses") != 1 {
			return fmt.Errorf("storm ran %d decode jobs, want exactly 1", st.counter("fanstore.decompresses"))
		}
		if st.counter("fanstore.opens.remote") != 1 {
			return fmt.Errorf("%d opens took the remote path, want 1 leader", st.counter("fanstore.opens.remote"))
		}
		if st.counter("fanstore.fetch.coalesced") != goroutines-1 {
			return fmt.Errorf("coalesced %d opens, want %d", st.counter("fanstore.fetch.coalesced"), goroutines-1)
		}
		if node.cache.pinned() != 0 {
			return fmt.Errorf("%d pins survived the storm", node.cache.pinned())
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

// TestOpenDuringPrefetchCoalesces checks the open↔prefetch half of the
// ownership contract: a demand open racing a staged window joins the
// prefetch's flight instead of duplicating the fetch, and re-announcing
// a staged window is suppressed rather than refetched.
func TestOpenDuringPrefetchCoalesces(t *testing.T) {
	bundle, want := buildBundle(t, dataset.ImageNet, 8, 2, 4<<10, nil)
	err := mpi.Run(2, func(c *mpi.Comm) error {
		opts := Options{CacheBytes: 1 << 20}
		if c.Rank() == 1 {
			opts.Backend = &latencyBackend{Backend: NewRAMBackend(), delay: 20 * time.Millisecond}
		}
		node, err := Mount(c, [][]byte{bundle.Scatter[c.Rank()]}, nil, opts)
		if err != nil {
			return err
		}
		defer node.Close()
		if c.Rank() != 0 {
			return nil
		}
		window := ownedPaths(t, bundle.Scatter[1])

		prefDone := make(chan int, 1)
		go func() { prefDone <- node.Prefetch(window) }()
		// Prefetch registers every target's flight before fetching; once
		// they are visible the slow fetch is still in the air.
		for node.flightCount() < len(window) {
			time.Sleep(100 * time.Microsecond)
		}
		got, err := node.ReadFile(window[0])
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want[window[0]]) {
			return fmt.Errorf("coalesced open returned wrong content")
		}
		staged := <-prefDone
		if staged != len(window) {
			return fmt.Errorf("prefetch staged %d of %d", staged, len(window))
		}

		st := read(t, node)
		if st.counter("fanstore.opens.remote") != 0 {
			return fmt.Errorf("open duplicated the in-flight prefetch (%d remote opens)", st.counter("fanstore.opens.remote"))
		}
		if st.counter("fanstore.fetch.coalesced") != 1 {
			return fmt.Errorf("coalesced %d opens, want 1", st.counter("fanstore.fetch.coalesced"))
		}
		// Re-announcing the staged window must refetch nothing.
		calls := st.counter("rpc.client.calls")
		if restaged := node.Prefetch(window); restaged != 0 {
			return fmt.Errorf("re-staged %d already-cached objects", restaged)
		}
		st = read(t, node)
		if st.counter("rpc.client.calls") != calls {
			return fmt.Errorf("suppressed window still issued %d calls", st.counter("rpc.client.calls")-calls)
		}
		if st.counter("fanstore.prefetch.suppressed") != int64(len(window)) {
			return fmt.Errorf("suppressed %d targets, want %d", st.counter("fanstore.prefetch.suppressed"), len(window))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRemoteOpenCloseStormCoalescingPinInvariants extends the PR 2 pin
// storm across the interconnect: concurrent open/read/close cycles over
// remote paths on a cache far smaller than the working set, so flights,
// evictions, and the abandoned-waiter retry loop all interleave. The
// refcount invariants must hold regardless.
func TestRemoteOpenCloseStormCoalescingPinInvariants(t *testing.T) {
	const nFiles, fileSize = 8, 2 << 10
	bundle, want := buildBundle(t, dataset.Language, nFiles, 2, fileSize, nil)
	err := mpi.Run(2, func(c *mpi.Comm) error {
		node, err := Mount(c, [][]byte{bundle.Scatter[c.Rank()]}, nil, Options{
			CacheBytes:  2 * fileSize,
			CachePolicy: Immediate,
		})
		if err != nil {
			return err
		}
		defer node.Close()
		if c.Rank() != 0 {
			return nil
		}
		paths := ownedPaths(t, bundle.Scatter[1])
		var wg sync.WaitGroup
		errCh := make(chan error, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 40; i++ {
					p := paths[(g*3+i)%len(paths)]
					got, err := node.ReadFile(p)
					if err != nil {
						errCh <- err
						return
					}
					if !bytes.Equal(got, want[p]) {
						errCh <- fmt.Errorf("%s: content mismatch under storm", p)
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
		if n := node.flightCount(); n != 0 {
			return fmt.Errorf("%d flights leaked", n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPlannedEpochBoundsStagedBytes is the admission acceptance test on
// the live store: an epoch plan far larger than the cache must stream
// through a planned pipeline without ever holding more staged-but-
// unread bytes than the cache's capacity, without evicting pinned
// entries, and with every batch delivered intact.
func TestPlannedEpochBoundsStagedBytes(t *testing.T) {
	const nFiles, fileSize = 32, 4 << 10
	bundle, want := buildBundle(t, dataset.EM, nFiles, 2, fileSize, nil)
	err := mpi.Run(2, func(c *mpi.Comm) error {
		// Cache holds ~4 files; the remote half of the epoch is 16.
		node, err := Mount(c, [][]byte{bundle.Scatter[c.Rank()]}, nil, Options{
			CacheBytes: 4 * fileSize,
		})
		if err != nil {
			return err
		}
		defer node.Close()
		if c.Rank() != 0 {
			return nil
		}
		var paths []string
		paths = append(paths, ownedPaths(t, bundle.Scatter[0])...)
		paths = append(paths, ownedPaths(t, bundle.Scatter[1])...)

		sampler := prefetch.RangeSampler(paths, 4, 0, 1)
		plan := prefetch.BuildPlan(sampler, node)
		if len(plan.Items) != nFiles/2 {
			return fmt.Errorf("planned %d remote items, want %d", len(plan.Items), nFiles/2)
		}
		sched := prefetch.NewScheduler(node, plan, prefetch.SchedOptions{BatchFiles: 4})
		pipe := prefetch.New(node, sampler, prefetch.Options{Workers: 2, Scheduler: sched})
		seen := 0
		for {
			b, ok, err := pipe.Next()
			if err != nil {
				pipe.Stop()
				return err
			}
			if !ok {
				break
			}
			for i, p := range b.Paths {
				if !bytes.Equal(b.Data[i], want[p]) {
					pipe.Stop()
					return fmt.Errorf("%s: content mismatch in planned epoch", p)
				}
				seen++
			}
		}
		pipe.Stop()
		if seen != nFiles {
			return fmt.Errorf("delivered %d files, want %d", seen, nFiles)
		}
		// CacheHeadroom now nets out staged bytes (it is the live admission
		// room, not the capacity), so the bound is checked against the
		// configured capacity directly.
		if max := sched.MaxStagedBytes(); max > 4*fileSize {
			return fmt.Errorf("staged-but-unread high-water %d exceeds cache capacity %d", max, 4*fileSize)
		}
		st := read(t, node)
		if node.cache.pinned() != 0 {
			return fmt.Errorf("%d pins survived the planned epoch", node.cache.pinned())
		}
		if st.counter("fanstore.cache.double_releases") != 0 {
			return fmt.Errorf("%d double releases", st.counter("fanstore.cache.double_releases"))
		}
		if st.counter("fanstore.fetch.batched") == 0 {
			return fmt.Errorf("planned epoch issued no batched fetches")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
