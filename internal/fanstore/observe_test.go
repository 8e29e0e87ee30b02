package fanstore

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"fanstore/internal/dataset"
	"fanstore/internal/metrics"
	"fanstore/internal/mpi"
	"fanstore/internal/trace"
)

// TestStatsStormRace hammers Registry.Snapshot and the live cache levels
// concurrently with an open/read/prefetch storm. It exists to run under
// `go test -race`: every counter the storm touches must be an atomic
// registry instrument, not a plain field read half-updated by an I/O
// thread.
func TestStatsStormRace(t *testing.T) {
	bundle, want := buildBundle(t, dataset.ImageNet, 16, 2, 2<<10, nil)
	err := mpi.Run(2, func(c *mpi.Comm) error {
		reg := metrics.NewRegistry()
		tr := trace.New(c.Rank(), 1<<10)
		node, err := Mount(c, [][]byte{bundle.Scatter[c.Rank()]}, nil, Options{
			CacheBytes: 8 << 10, // tiny: force constant eviction churn
			Metrics:    reg,
			Tracer:     tr,
		})
		if err != nil {
			return err
		}
		defer node.Close()
		if c.Rank() != 0 {
			return nil // serve peers until rank 0's Close barrier
		}

		paths := make([]string, 0, len(want))
		for p := range want {
			paths = append(paths, p)
		}
		var wg sync.WaitGroup
		errc := make(chan error, 8)

		// Open/read storm across local and remote files.
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 30; i++ {
					p := paths[(w*7+i)%len(paths)]
					got, err := node.ReadFile(p)
					if err != nil {
						errc <- err
						return
					}
					if !bytes.Equal(got, want[p]) {
						errc <- fmt.Errorf("%s: content mismatch", p)
						return
					}
				}
			}(w)
		}
		// Prefetch announcer re-staging windows against the churn.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				node.Prefetch(paths)
			}
		}()
		// Stats pollers: the racing readers this test is about.
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					_ = node.Registry().Snapshot()
					_ = node.cache.Stats()
					_ = tr.Len()
				}
			}()
		}
		wg.Wait()
		close(errc)
		for err := range errc {
			return err
		}

		st := read(t, node)
		if st.counter("fanstore.opens.local")+st.counter("fanstore.opens.remote") == 0 {
			return fmt.Errorf("storm recorded no opens: %+v", st)
		}
		if st.hist("fanstore.open.latency").Count == 0 {
			return fmt.Errorf("open latency histogram empty")
		}
		if tr.Len() == 0 {
			return fmt.Errorf("storm recorded no spans")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDataPathOutcomes checks the outcome taxonomy end to end: a remote
// read traces as remote-fetch, the repeat open as cache-hit, and the
// shared registry sees cache/rpc/store instruments under one namespace.
func TestDataPathOutcomes(t *testing.T) {
	bundle, want := buildBundle(t, dataset.EM, 8, 2, 2<<10, nil)
	err := mpi.Run(2, func(c *mpi.Comm) error {
		reg := metrics.NewRegistry()
		tr := trace.New(c.Rank(), 1<<10)
		node, err := Mount(c, [][]byte{bundle.Scatter[c.Rank()]}, nil, Options{
			CacheBytes: 1 << 20,
			Metrics:    reg,
			Tracer:     tr,
		})
		if err != nil {
			return err
		}
		defer node.Close()
		if c.Rank() != 0 {
			return nil
		}
		remote := ownedPaths(t, bundle.Scatter[1])[0]
		for i := 0; i < 2; i++ { // first open fetches, second hits cache
			got, err := node.ReadFile(remote)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, want[remote]) {
				return fmt.Errorf("content mismatch")
			}
		}
		outcomes := map[trace.Outcome]int{}
		ops := map[trace.Op]int{}
		for _, s := range tr.Spans() {
			ops[s.Op]++
			if s.Op == trace.OpOpen {
				outcomes[s.Outcome]++
				if tr.PathName(s.PathID) != remote {
					return fmt.Errorf("open span path %q, want %q", tr.PathName(s.PathID), remote)
				}
			}
		}
		if outcomes[trace.OutcomeRemoteFetch] != 1 || outcomes[trace.OutcomeCacheHit] != 1 {
			return fmt.Errorf("open outcomes = %v, want 1 remote-fetch + 1 cache-hit", outcomes)
		}
		if ops[trace.OpFetch] != 1 || ops[trace.OpDecompress] != 1 {
			return fmt.Errorf("ops = %v, want 1 fetch + 1 decompress", ops)
		}
		snap := reg.Snapshot()
		for _, name := range []string{
			"fanstore.opens.remote", "fanstore.cache.hits", "rpc.client.calls",
		} {
			if snap.Counters[name] == 0 {
				return fmt.Errorf("counter %s missing from shared registry: %v", name, snap.Counters)
			}
		}
		for _, name := range []string{
			"fanstore.open.latency", "fanstore.fetch.latency", "fanstore.decompress.latency",
		} {
			if snap.Histograms[name].Count == 0 {
				return fmt.Errorf("histogram %s empty", name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
