package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"fanstore/internal/cluster"
	"fanstore/internal/dataset"
	"fanstore/internal/fanstore"
	"fanstore/internal/iobench"
	"fanstore/internal/metrics"
	"fanstore/internal/mpi"
	"fanstore/internal/pack"
	"fanstore/internal/prefetch"
	"fanstore/internal/trainsim"
)

// Ablations exercises the design decisions DESIGN.md calls out, beyond
// what the paper's own exhibits cover: cache policy, ring replication,
// RAM metadata, and the global view vs. the §III chunk workaround.
func Ablations(w io.Writer, opt Options) error {
	if err := ablationCache(w, opt); err != nil {
		return err
	}
	if err := ablationRing(w, opt); err != nil {
		return err
	}
	if err := ablationRouting(w, opt); err != nil {
		return err
	}
	if err := ablationPlannedPrefetch(w, opt); err != nil {
		return err
	}
	if err := ablationMetadata(w, opt); err != nil {
		return err
	}
	return ablationChunked(w)
}

// ablationCache replays a uniform re-read workload against each cache
// policy with capacity for half the files (§IV-C3's design argument).
func ablationCache(w io.Writer, opt Options) error {
	const n, size, reads = 16, 16 << 10, 200
	g := dataset.Generator{Kind: dataset.EM, Seed: opt.Seed, Size: size}
	files := make([]pack.InputFile, n)
	paths := make([]string, n)
	for i := range files {
		f := g.File(i, n)
		files[i] = pack.InputFile{Path: f.Path, Data: f.Data}
		paths[i] = f.Path
	}
	bundle, err := pack.Build(files, pack.BuildOptions{Partitions: 1, Compressor: "lzsse8"})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "--- cache policy (uniform random re-reads, cache = half the dataset) ---\n")
	t := tw(w)
	fmt.Fprintf(t, "policy\tdecompressions per read\thit rate\n")
	for _, pol := range []fanstore.Policy{fanstore.FIFO, fanstore.LRU, fanstore.Immediate} {
		pol := pol
		err := mpi.Run(1, func(c *mpi.Comm) error {
			node, err := fanstore.Mount(c, bundle.Scatter, nil, fanstore.Options{
				CachePolicy: pol, CacheBytes: int64(n * size / 2),
			})
			if err != nil {
				return err
			}
			defer node.Close()
			// Uniform random access: every file equally likely each
			// iteration, the paper's model of training I/O (§IV-C3).
			rng := rand.New(rand.NewSource(3))
			for i := 0; i < reads; i++ {
				if _, err := node.ReadFile(paths[rng.Intn(n)]); err != nil {
					return err
				}
			}
			snap := node.Registry().Snapshot()
			fmt.Fprintf(t, "%s\t%.2f\t%.0f%%\n", pol,
				float64(snap.Counters["fanstore.decompresses"])/reads, hitRate(snap))
			return nil
		})
		if err != nil {
			return err
		}
	}
	t.Flush()
	fmt.Fprintf(w, "uniform access probability (the paper's argument): FIFO ~ LRU, both beat immediate release.\n\n")

	// That argument is about a cache that does not know the future. The
	// training loop's cache does: replay the benchmark's access shapes
	// offline through the paper's rule, the rule the cache applies once
	// the epoch's order is installed, and Belady's MIN.
	epochs := 60
	if opt.Quick {
		epochs = 12
	}
	fmt.Fprintf(w, "--- eviction with the epoch's order known (offline replay, %d shuffled epochs, rank 0 of 2, cache = 1/4 of the data, filled on demand) ---\n", epochs)
	t = tw(w)
	fmt.Fprintf(t, "access shape\tfifo\tplan\tMIN\tplan -> MIN\n")
	for _, s := range benchShapes {
		seq := s.record(epochs, opt.Seed)
		opens := 0
		for _, e := range seq {
			opens += len(e)
		}
		share := func(hits int) float64 { return float64(hits) / float64(opens) }
		fifo, plan, best := share(replayFIFO(seq, s.slots)), share(replayPlan(seq, s.slots)), share(replayMIN(seq, s.slots))
		fmt.Fprintf(t, "%s\t%.3f\t%.3f\t%.3f\t+%.3f\n", s.name, fifo, plan, best, best-plan)
	}
	t.Flush()
	fmt.Fprintf(w, "share of cache-eligible opens served without a fetch or decode (train_raw: remote files only; the others decode local files into the cache too). plan is fanstore.Cache with the epoch installed, to the hit (TestEvictionModelsMatchLiveCache); plan -> MIN is what a plan spanning the epoch barrier could still claim.\n\n")
	return nil
}

// ablationRing reads a peer's partition with and without ring replication
// (§V-D).
func ablationRing(w io.Writer, opt Options) error {
	const n, size = 8, 16 << 10
	g := dataset.Generator{Kind: dataset.EM, Seed: opt.Seed + 1, Size: size}
	files := make([]pack.InputFile, n)
	paths := make([]string, n)
	for i := range files {
		f := g.File(i, n)
		files[i] = pack.InputFile{Path: f.Path, Data: f.Data}
		paths[i] = f.Path
	}
	bundle, err := pack.Build(files, pack.BuildOptions{Partitions: 2, Compressor: "lzsse8"})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "--- ring replication of extra partitions (§V-D) ---\n")
	t := tw(w)
	fmt.Fprintf(t, "placement\tremote fetches\tremote bytes\n")
	for _, replicate := range []bool{false, true} {
		replicate := replicate
		err := mpi.Run(2, func(c *mpi.Comm) error {
			opts := fanstore.Options{CachePolicy: fanstore.Immediate}
			own := [][]byte{bundle.Scatter[c.Rank()]}
			if replicate {
				extra, err := fanstore.RingReplicate(c, own)
				if err != nil {
					return err
				}
				opts.Replicas = extra
			}
			node, err := fanstore.Mount(c, own, nil, opts)
			if err != nil {
				return err
			}
			defer node.Close()
			if c.Rank() == 0 {
				for round := 0; round < 5; round++ {
					for i := 1; i < n; i += 2 { // rank 1's partition
						if _, err := node.ReadFile(paths[i]); err != nil {
							return err
						}
					}
				}
				snap := node.Registry().Snapshot()
				label := "remote fetch"
				if replicate {
					label = "ring replicated"
				}
				fmt.Fprintf(t, "%s\t%d\t%d\n", label, snap.Counters["fanstore.opens.remote"], snap.Counters["fanstore.bytes.remote"])
			}
			return c.Barrier()
		})
		if err != nil {
			return err
		}
	}
	t.Flush()
	fmt.Fprintf(w, "\n")
	return nil
}

// deadBackend simulates an owner rank whose local storage has failed:
// metadata and partitions load normally, but every read errors.
type deadBackend struct{ fanstore.Backend }

func (d *deadBackend) Get(path string) (uint16, []byte, error) {
	return 0, nil, fmt.Errorf("storage offline")
}

func (d *deadBackend) Peek(path string) (uint16, []byte, bool) { return 0, nil, false }

// ablationRouting shows what replica-aware fetch routing buys beyond the
// passive local copies of §V-D: with a replica announced, fetch load
// spreads across owner and replica, and when the owner's storage fails,
// reads keep succeeding by failing over to the replica.
func ablationRouting(w io.Writer, opt Options) error {
	const n, size, rounds = 8, 16 << 10, 4
	g := dataset.Generator{Kind: dataset.EM, Seed: opt.Seed + 2, Size: size}
	files := make([]pack.InputFile, n)
	paths := make([]string, n)
	for i := range files {
		f := g.File(i, n)
		files[i] = pack.InputFile{Path: f.Path, Data: f.Data}
		paths[i] = f.Path
	}
	bundle, err := pack.Build(files, pack.BuildOptions{Partitions: 1, Compressor: "lzsse8"})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "--- replica-aware fetch routing (owner rank 1, replica rank 2) ---\n")
	t := tw(w)
	fmt.Fprintf(t, "configuration\towner served\treplica served\tfailovers\towner errors\n")
	for _, mode := range []string{"owner only", "owner + replica", "owner storage failed"} {
		mode := mode
		err := mpi.Run(3, func(c *mpi.Comm) error {
			opts := fanstore.Options{CachePolicy: fanstore.Immediate}
			var parts [][]byte
			switch c.Rank() {
			case 1:
				parts = bundle.Scatter
				if mode == "owner storage failed" {
					opts.Backend = &deadBackend{Backend: fanstore.NewRAMBackend()}
				}
			case 2:
				if mode != "owner only" {
					opts.Replicas = bundle.Scatter
				}
			}
			node, err := fanstore.Mount(c, parts, nil, opts)
			if err != nil {
				return err
			}
			defer node.Close()
			if c.Rank() == 0 {
				for r := 0; r < rounds; r++ {
					for _, p := range paths {
						if _, err := node.ReadFile(p); err != nil {
							return err
						}
					}
				}
			}
			// GatherReport snapshots before its Allgather: without this
			// barrier the serving ranks would report before rank 0 has read.
			if err := c.Barrier(); err != nil {
				return err
			}
			rep, err := fanstore.GatherReport(c, node.Registry(), fanstore.ReportOptions{})
			if err != nil || c.Rank() != 0 {
				return err
			}
			owner, replica := rep.PerRank[1].Counters, rep.PerRank[2].Counters
			fmt.Fprintf(t, "%s\t%d\t%d\t%d\t%d\n", mode, owner["rpc.server.served"], replica["rpc.server.served"],
				rep.PerRank[0].Counters["fanstore.failovers"], owner["rpc.server.errors"])
			return nil
		})
		if err != nil {
			return err
		}
	}
	t.Flush()
	fmt.Fprintf(w, "replicas are fetch targets, not just local copies: load spreads, and owner loss degrades to failover, not failure.\n\n")
	return nil
}

// slowBackend models storage with a fixed per-read access latency (a
// cold read on a busy disk), so fetch-path round-trip structure
// dominates the cold-epoch cost — the regime the planner's batched
// fetches are designed for.
type slowBackend struct {
	fanstore.Backend
	delay time.Duration
}

func (s *slowBackend) Get(path string) (uint16, []byte, error) {
	time.Sleep(s.delay)
	return s.Backend.Get(path)
}

func (s *slowBackend) Peek(path string) (uint16, []byte, bool) { return 0, nil, false }

// ablationPlannedPrefetch shows what the clairvoyant epoch planner buys:
// a live two-rank run drives the same cold epoch through the real
// pipeline with and without the plan, with a cache far smaller than the
// epoch — a few large fetch RPCs instead of one per remote open, and a
// staged-but-unread high-water held inside the cache's free capacity.
func ablationPlannedPrefetch(w io.Writer, opt Options) error {
	fmt.Fprintf(w, "--- epoch-plan prefetch vs demand-only fetching ---\n")
	const n, size, batch, rounds = 96, 8 << 10, 4, 3
	const readLatency = 400 * time.Microsecond
	g := dataset.Generator{Kind: dataset.EM, Seed: opt.Seed + 5, Size: size}
	files := make([]pack.InputFile, n)
	paths := make([]string, n)
	for i := range files {
		f := g.File(i, n)
		files[i] = pack.InputFile{Path: f.Path, Data: f.Data}
		paths[i] = f.Path
	}
	bundle, err := pack.Build(files, pack.BuildOptions{Partitions: 2, Compressor: "lzsse8"})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "live pipeline, cold epochs (2 ranks, cache = %d of %d files, %v/read backend):\n",
		16, n, readLatency)
	t := tw(w)
	fmt.Fprintf(t, "staging\tepoch (mean of %d)\tfiles/s\tbatched fetches\tstaged high-water\tpinned after\n", rounds)
	epochSecs := make(map[bool]float64, 2)
	for _, planned := range []bool{false, true} {
		planned := planned
		var total time.Duration
		var lastBatched, lastPinned, lastHigh int64
		for round := 0; round < rounds; round++ { // fresh mount: every epoch cold
			err := mpi.Run(2, func(c *mpi.Comm) error {
				opts := fanstore.Options{CacheBytes: int64(16 * size)}
				if c.Rank() == 1 {
					opts.Backend = &slowBackend{Backend: fanstore.NewRAMBackend(), delay: readLatency}
				}
				node, err := fanstore.Mount(c, [][]byte{bundle.Scatter[c.Rank()]}, nil, opts)
				if err != nil {
					return err
				}
				defer node.Close()
				if c.Rank() != 0 {
					return nil // serve until rank 0's Close barrier
				}
				sampler := prefetch.RangeSampler(paths, batch, 0, 1)
				popts := prefetch.Options{Workers: 4, Depth: 2}
				var sched *prefetch.Scheduler
				if planned {
					plan := prefetch.BuildPlan(sampler, node)
					sched = prefetch.NewScheduler(node, plan, prefetch.SchedOptions{BatchFiles: 16})
					popts.Scheduler = sched
				}
				pipe := prefetch.New(node, sampler, popts)
				start := time.Now()
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
				total += time.Since(start)
				pipe.Stop()
				snap := node.Registry().Snapshot()
				// Pinned after: an invariant, 0 once every file is closed.
				lastBatched, lastPinned = snap.Counters["fanstore.fetch.batched"], snap.Gauges["fanstore.cache.pinned_bytes"].Value
				if sched != nil {
					lastHigh = sched.MaxStagedBytes()
				}
				return nil
			})
			if err != nil {
				return err
			}
		}
		mean := total / rounds
		epochSecs[planned] = mean.Seconds()
		label, high := "demand only", "-"
		if planned {
			label = "epoch plan"
			high = fmt.Sprintf("%d B", lastHigh)
		}
		fmt.Fprintf(t, "%s\t%v\t%.0f\t%d\t%s\t%d\n",
			label, mean.Round(10*time.Microsecond), n/mean.Seconds(), lastBatched, high, lastPinned)
	}
	t.Flush()
	fmt.Fprintf(w, "live demand-only/planned wall-time ratio: %.2fx — wall time is noisy on a shared core; what repeats is the fetch count: a few batched round trips instead of one per remote open, with staging bounded by the cache.\n\n",
		epochSecs[false]/epochSecs[true])
	return nil
}

// hitRate is the cache hit percentage of a node's snapshot.
func hitRate(s metrics.RegistrySnapshot) float64 {
	hits, misses := s.Counters["fanstore.cache.hits"], s.Counters["fanstore.cache.misses"]
	return float64(hits) / float64(hits+misses) * 100
}

// ablationMetadata measures the live RAM-table stat() against the modeled
// shared-filesystem RPC it replaces (§IV-C1/2).
func ablationMetadata(w io.Writer, opt Options) error {
	const n = 64
	g := dataset.Generator{Kind: dataset.ImageNet, Seed: opt.Seed + 2, Size: 4 << 10}
	files := make([]pack.InputFile, n)
	paths := make([]string, n)
	for i := range files {
		f := g.File(i, n)
		files[i] = pack.InputFile{Path: f.Path, Data: f.Data}
		paths[i] = f.Path
	}
	bundle, err := pack.Build(files, pack.BuildOptions{Partitions: 1, Compressor: "memcpy"})
	if err != nil {
		return err
	}
	var perStat time.Duration
	err = mpi.Run(1, func(c *mpi.Comm) error {
		node, err := fanstore.Mount(c, bundle.Scatter, nil, fanstore.Options{})
		if err != nil {
			return err
		}
		defer node.Close()
		const rounds = 2000
		start := time.Now()
		for i := 0; i < rounds; i++ {
			if _, err := node.Stat(paths[i%n]); err != nil {
				return err
			}
		}
		perStat = time.Since(start) / rounds
		return nil
	})
	if err != nil {
		return err
	}
	// The §II-B1 burst: 96 concurrent enumerators (24 processes x 4 I/O
	// threads of the paper's 4-node example) walking the namespace.
	var burst iobench.Result
	err = mpi.Run(1, func(c *mpi.Comm) error {
		node, err := fanstore.Mount(c, bundle.Scatter, nil, fanstore.Options{})
		if err != nil {
			return err
		}
		defer node.Close()
		burst, err = iobench.MeasureMetadataBurst(node, 96)
		return err
	})
	if err != nil {
		return err
	}
	rpc := cluster.CPU.Shared.Device().Overhead
	fmt.Fprintf(w, "--- metadata from RAM vs shared-FS RPC (§IV-C, §II-B1) ---\n")
	fmt.Fprintf(w, "FanStore stat(): %v/op (measured) | Lustre MDS round trip: %v/op (model) | ratio %.0fx\n",
		perStat, rpc, float64(rpc)/float64(perStat+1))
	fmt.Fprintf(w, "96-thread enumeration burst: %.0f metadata ops/s served from RAM\n",
		burst.FilesPerSec)
	fmt.Fprintf(w, "(the modeled Lustre MDS saturates at %.0f ops/s shared by ALL nodes)\n\n",
		cluster.CPU.Shared.MDSOpsPerSec)
	return nil
}

// ablationChunked compares FanStore's global view against the §III chunk
// permutation workaround for a ResNet-scale run.
func ablationChunked(w io.Writer) error {
	ch := trainsim.Chunked{
		Base:         trainsim.Config{App: cluster.ResNet50, Clust: cluster.CPU, Nodes: 64, Ratio: 1},
		PermuteEvery: 5,
		DatasetBytes: 140 << 30,
	}
	const epochs, files = 90, 1_300_000
	chunked := ch.TrainTime(epochs, files)
	global := ch.GlobalViewTrainTime(epochs, files)
	fmt.Fprintf(w, "--- global view vs chunk permutation (§III) ---\n")
	fmt.Fprintf(w, "ResNet-50, 64 nodes, %d epochs: global view %v | chunked+permute %v (global/chunked %.1f%%)\n",
		epochs, global.Round(time.Second), chunked.Round(time.Second),
		float64(global)/float64(chunked)*100)
	fmt.Fprintf(w, "the async pipeline hides the remote fraction, so the statistically sound\n")
	fmt.Fprintf(w, "global view costs nothing — the paper's case against the workaround.\n")
	return nil
}
