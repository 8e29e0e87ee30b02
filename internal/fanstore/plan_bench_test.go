package fanstore

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"fanstore/internal/dataset"
	"fanstore/internal/mpi"
	"fanstore/internal/pack"
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

// BenchmarkSmallFileEpoch is the benchmark's train_small loop in one
// process, for profiling what a small file costs (bench/ has no profile
// hook): two ranks on the in-process transport, 4 KiB Tokamak files
// packed with lz4hc, a cache of a quarter of the data, and the plan
// pipeline with one worker, two batches deep. It reads 4 096 files, not
// train_small's 16 384: the per-file shape, batch and cache ratio are
// the same at a quarter of the memory. One iteration is one epoch of
// both ranks; ns/file, allocs/file and B/file (heap bytes allocated, the
// benchmark's alloc_kb_per_file) count the whole process.
//
//	go test -run '^$' -bench SmallFileEpoch -benchtime 20x -cpuprofile cpu.prof ./internal/fanstore
func BenchmarkSmallFileEpoch(b *testing.B) {
	const ranks, nFiles, fileSize, batch = 2, 4096, 4 << 10, 64
	g := dataset.Generator{Kind: dataset.Tokamak, Seed: 1, Size: fileSize}
	files := make([]pack.InputFile, nFiles)
	paths := make([]string, nFiles)
	for i := range files {
		f := g.File(i, nFiles)
		files[i] = pack.InputFile{Path: f.Path, Data: f.Data}
		paths[i] = f.Path
	}
	bundle, err := pack.Build(files, pack.BuildOptions{Partitions: ranks, Compressor: "lz4hc"})
	if err != nil {
		b.Fatal(err)
	}
	var start time.Time
	var before runtime.MemStats
	err = mpi.Run(ranks, func(c *mpi.Comm) error {
		node, err := Mount(c, [][]byte{bundle.Scatter[c.Rank()]}, nil, Options{CacheBytes: nFiles * fileSize / 4})
		if err != nil {
			return err
		}
		defer node.Close()
		epoch := func(e int) error {
			order := rand.New(rand.NewSource(int64(e))).Perm(nFiles)
			shuffled := make([]string, nFiles)
			for i, idx := range order {
				shuffled[i] = paths[idx]
			}
			sampler := prefetch.RangeSampler(shuffled, batch, c.Rank(), ranks)
			sched := prefetch.NewScheduler(node, prefetch.BuildPlan(sampler, node), prefetch.SchedOptions{AdmissionSource: node.AdmissionBytes})
			pipe := prefetch.New(node, sampler, prefetch.Options{Workers: 1, Depth: 2, Scheduler: sched})
			defer pipe.Stop()
			for {
				if _, ok, err := pipe.Next(); err != nil || !ok {
					return err
				}
			}
		}
		if err := epoch(-1); err != nil { // warm: the cache holds what an epoch leaves
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			runtime.GC()
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			start = time.Now()
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		for e := 0; e < b.N; e++ {
			if err := epoch(e); err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		if c.Rank() == 0 {
			elapsed := time.Since(start)
			b.StopTimer()
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			read := float64(b.N) * nFiles
			b.ReportMetric(float64(elapsed.Nanoseconds())/read, "ns/file")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/read, "allocs/file")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/read, "B/file")
		}
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
