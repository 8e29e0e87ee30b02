package fanstore

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"fanstore/internal/dataset"
	"fanstore/internal/mpi"
	"fanstore/internal/prefetch"
)

// serialLatencyBackend models a single storage device: reads pay a
// fixed access latency and serialize against each other (one disk
// head). Duplicate fetches of the same object are therefore pure added
// wall time — the regime singleflight coalescing removes.
type serialLatencyBackend struct {
	Backend
	mu    sync.Mutex
	delay time.Duration
}

func (l *serialLatencyBackend) Get(path string) (uint16, []byte, error) {
	l.mu.Lock()
	time.Sleep(l.delay)
	l.mu.Unlock()
	return l.Backend.Get(path)
}

func (l *serialLatencyBackend) Peek(path string) (uint16, []byte, bool) {
	return 0, nil, false // force every fetch through Get
}

// BenchmarkCoalescedOpenStorm measures a storm of goroutines opening
// the same cold remote path through the singleflight data path: one
// leader fetches and decodes, the rest wait and share the cache entry —
// exactly one backend read per storm, asserted. The serving backend
// serializes reads like a real device, so a duplicated fetch would stack
// up as wall time.
func BenchmarkCoalescedOpenStorm(b *testing.B) {
	const nFiles, fileSize, stormers = 16, 32 << 10, 8
	const readLatency = 100 * time.Microsecond
	bundle, _ := buildBundle(b, dataset.EM, nFiles, 2, fileSize, nil)
	err := mpi.Run(2, func(c *mpi.Comm) error {
		// Two files of cache: the stormed path survives its own
		// storm (late arrivals hit the cache, not a new flight)
		// but is evicted long before the cycle revisits it.
		opts := Options{CacheBytes: 2 * fileSize}
		if c.Rank() == 1 {
			opts.Backend = &serialLatencyBackend{Backend: NewRAMBackend(), delay: readLatency}
		}
		node, err := Mount(c, [][]byte{bundle.Scatter[c.Rank()]}, nil, opts)
		if err != nil {
			return err
		}
		defer node.Close()
		if c.Rank() != 0 {
			return nil // serve until rank 0's Close barrier
		}
		paths := ownedPaths(b, bundle.Scatter[1])
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			path := paths[i%len(paths)]
			errCh := make(chan error, stormers)
			var wg sync.WaitGroup
			for g := 0; g < stormers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := node.ReadFile(path); err != nil {
						errCh <- err
					}
				}()
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				return err
			}
		}
		b.StopTimer()
		st := read(b, node)
		if st.counter("rpc.client.calls") != int64(b.N) {
			return fmt.Errorf("coalesced storm issued %d fetches for %d storms (duplicates!)", st.counter("rpc.client.calls"), b.N)
		}
		b.ReportMetric(float64(st.counter("rpc.client.calls"))/float64(b.N), "fetches/storm")
		b.SetBytes(int64(fileSize))
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEpochPlannedPrefetch measures the clairvoyant epoch planner:
// one consumer draining a prefetch pipeline over an epoch whose remote
// half lives behind a peer with per-read backend latency, with a cache
// far smaller than the epoch. The plan materializes the whole epoch at
// start and streams plan-sized batches under cache-pressure admission.
// One benchmark iteration is one full epoch.
func BenchmarkEpochPlannedPrefetch(b *testing.B) {
	const nFiles, fileSize, batch = 64, 32 << 10, 4
	const readLatency = 200 * time.Microsecond
	bundle, _ := buildBundle(b, dataset.EM, nFiles, 2, fileSize, nil)
	err := mpi.Run(2, func(c *mpi.Comm) error {
		// The cache holds 16 of the epoch's 64 files (half its
		// remote set), so staging stays admission-bounded.
		opts := Options{CacheBytes: 16 * fileSize}
		if c.Rank() == 1 {
			opts.Backend = &latencyBackend{Backend: NewRAMBackend(), delay: readLatency}
		}
		node, err := Mount(c, [][]byte{bundle.Scatter[c.Rank()]}, nil, opts)
		if err != nil {
			return err
		}
		defer node.Close()
		if c.Rank() != 0 {
			return nil // serve until rank 0's Close barrier
		}
		var paths []string
		paths = append(paths, ownedPaths(b, bundle.Scatter[0])...)
		paths = append(paths, ownedPaths(b, bundle.Scatter[1])...)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sampler := prefetch.RangeSampler(paths, batch, 0, 1)
			plan := prefetch.BuildPlan(sampler, node)
			sched := prefetch.NewScheduler(node, plan, prefetch.SchedOptions{BatchFiles: 16})
			pipe := prefetch.New(node, sampler, prefetch.Options{Workers: 4, Depth: 2, Scheduler: sched})
			for {
				_, ok, err := pipe.Next()
				if err != nil {
					pipe.Stop()
					return err
				}
				if !ok {
					break
				}
			}
			pipe.Stop()
		}
		b.StopTimer()
		b.SetBytes(int64(nFiles) * fileSize)
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
