// Command fanstore-sim runs the distributed-training simulator: per-
// compressor application performance (Fig. 8) and weak scaling including
// the Lustre comparison (Fig. 9).
//
//	fanstore-sim -mode perf -case srgan-gtx
//	fanstore-sim -mode scaling -case resnet-cpu -nodes 1,8,64,512
//
// With -trace and/or -report it additionally replays a per-rank epoch
// timeline of the case's configuration through the observability stack:
// -trace writes a Chrome trace-event JSON of all simulated ranks, and
// -report prints the cluster-wide aggregated report (with -skew slowing
// the last rank so the straggler detector has something to find; the
// skew multiplies I/O time, so it must be large enough for I/O to
// dominate compute before the rank visibly lags):
//
//	fanstore-sim -case srgan-gtx -trace out.json -report -skew 100
//
// The replay is one scenario per rank and the scenario flags compose —
// any subset runs together through the same replay, under -monitor too:
//
// -plan prices the epoch-plan prefetcher's per-epoch cold fill.
//
// -chaos-kill-rank fail-stops one simulated rank at -chaos-at-epoch over
// an ec(k,m) mount (-redundancy): the kill epoch runs degraded reads and
// the background repair, and the report shows the ec line (degraded-read
// count, reconstruct p99, rebuild throughput).
//
// -monitor steps the ranks in epoch lockstep with the live health
// monitor polling after every epoch, instead of one rank after another.
//
//	fanstore-sim -case srgan-gtx -report -chaos-kill-rank 3 -redundancy 'ec(4,2)'
//	fanstore-sim -case srgan-gtx -report -chaos-kill-rank 3 -plan
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"fanstore/internal/cluster"
	"fanstore/internal/dataset"
	"fanstore/internal/fanstore"
	"fanstore/internal/metrics"
	"fanstore/internal/obs"
	"fanstore/internal/selector"
	"fanstore/internal/trace"
	"fanstore/internal/trainsim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fanstore-sim: ")
	var (
		mode     = flag.String("mode", "perf", "perf (Fig. 8) | scaling (Fig. 9) | explain (iteration breakdown)")
		caseName = flag.String("case", "srgan-gtx", "srgan-gtx|frnn-cpu|srgan-v100|resnet-gtx|resnet-cpu")
		nodesArg = flag.String("nodes", "", "node counts for -mode scaling (default: powers of two up to the cluster)")
		codecArg = flag.String("codec", "", "compressor for -mode scaling (default: case's first candidate)")
		seed     = flag.Int64("seed", 42, "generator seed")
		traceOut = flag.String("trace", "", "write a Chrome trace-event JSON of the simulated ranks to this file")
		report   = flag.Bool("report", false, "print the cluster-wide aggregated report of the simulated ranks")
		simRanks = flag.Int("sim-ranks", 4, "ranks in the -trace/-report epoch replay")
		simEpoch = flag.Int("sim-epochs", 3, "epochs in the -trace/-report epoch replay")
		simFiles = flag.Int("sim-files", 4096, "dataset size (files) in the -trace/-report epoch replay")
		skew     = flag.Float64("skew", 0, "I/O slowdown factor injected into the last simulated rank (0: none)")
		plan     = flag.Bool("plan", false, "price the epoch-plan prefetcher's per-epoch cold fill (one batched round trip before overlap primes)")
		admitMB  = flag.Int("admission", 0, "staged-bytes admission budget reported by the -plan replay, MiB (0: unbounded)")
		killRank = flag.Int("chaos-kill-rank", -1, "fail-stop this simulated rank and replay the degraded reads + repair (-1: no chaos)")
		killAt   = flag.Int("chaos-at-epoch", 1, "epoch at whose start -chaos-kill-rank dies")
		redun    = flag.String("redundancy", "ec(4,2)", "redundancy of the chaos replay: ec(k,m) (none loses the killed rank's data)")
		monitor  = flag.Bool("monitor", false, "step the ranks in epoch lockstep: the live health monitor polls every rank after each epoch and flags the skewed rank mid-run (-skew 0 derives a reliably detectable skew)")
		opsAddr  = flag.String("ops-addr", "", "serve per-rank HTTP ops endpoints during -monitor (rank r listens on port+r; empty disables)")
		pace     = flag.Duration("pace", 0, "wall-clock pause per simulated epoch in -monitor, so the ops endpoints can be curled mid-run (0: full speed)")
	)
	flag.Parse()

	tc, ok := cluster.Cases[strings.ToLower(*caseName)]
	if !ok {
		log.Fatalf("unknown case %q", *caseName)
	}
	kind, _ := dataset.KindByName(tc.App.FileKind)

	sampleSize := int(tc.App.FileSizeBytes())
	if sampleSize > 256<<10 {
		sampleSize = 256 << 10
	}
	genSamples := func() [][]byte {
		n := 4
		if kind == dataset.Tokamak {
			n = 32
		}
		g := dataset.Generator{Kind: kind, Seed: *seed, Size: sampleSize}
		samples := make([][]byte, n)
		for i := range samples {
			samples[i] = g.Bytes(i)
		}
		return samples
	}
	measure := func(name string) selector.Candidate {
		fileSize := tc.App.FileSizeBytes()
		c, err := selector.MeasureCandidate(name, genSamples())
		if err != nil {
			log.Fatal(err)
		}
		c.DecompressPerFile = time.Duration(float64(c.DecompressPerFile) * float64(fileSize) / float64(sampleSize))
		return c
	}

	switch *mode {
	case "perf":
		w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
		fmt.Fprintf(w, "compressor\tratio\tdecompress us/file\titer time\trelative perf\n")
		base := trainsim.Config{App: tc.App, Clust: tc.Cluster, Nodes: 4, Ratio: 1}
		fmt.Fprintf(w, "baseline\t1.00\t0\t%v\t100.0%%\n", base.IterTime().Round(time.Millisecond))
		for _, name := range tc.Candidates {
			c := measure(name)
			cfg := trainsim.Config{
				App: tc.App, Clust: tc.Cluster, Nodes: 4,
				DecompressPerFile: c.DecompressPerFile, Ratio: c.Ratio,
			}
			fmt.Fprintf(w, "%s\t%.2f\t%.0f\t%v\t%.1f%%\n",
				name, c.Ratio, float64(c.DecompressPerFile)/float64(time.Microsecond),
				cfg.IterTime().Round(time.Millisecond), cfg.RelativePerf()*100)
		}
		w.Flush()

	case "scaling":
		var counts []int
		if *nodesArg != "" {
			for _, s := range strings.Split(*nodesArg, ",") {
				n, err := strconv.Atoi(strings.TrimSpace(s))
				if err != nil || n < 1 {
					log.Fatalf("bad node count %q", s)
				}
				counts = append(counts, n)
			}
		} else {
			for n := 1; n <= tc.Cluster.Nodes; n *= 2 {
				counts = append(counts, n)
			}
		}
		codecName := *codecArg
		if codecName == "" {
			codecName = tc.Candidates[0]
		}
		c := measure(codecName)
		cfg := trainsim.Config{
			App: tc.App, Clust: tc.Cluster,
			DecompressPerFile: c.DecompressPerFile, Ratio: c.Ratio,
		}
		fmt.Printf("%s on %s with %s (ratio %.2f)\n", tc.App.Name, tc.Cluster.Name, codecName, c.Ratio)
		single := cfg
		single.Nodes = 1
		single.RemoteFrac = 0
		t1 := single.Throughput()
		spec := kind.Spec()
		w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
		fmt.Fprintf(w, "nodes\tFanStore samples/s\teff\tLustre samples/s\teff\tLustre startup\n")
		for _, p := range trainsim.WeakScaling(cfg, counts) {
			lus := trainsim.LustreScalingAt(cfg, p.Nodes, spec.NumFiles, spec.NumDirs, t1)
			fmt.Fprintf(w, "%d\t%.0f\t%.1f%%\t%.0f\t%.1f%%\t%v\n",
				p.Nodes, p.Throughput, p.Efficiency*100,
				lus.Point.Throughput, lus.Point.Efficiency*100, lus.Startup.Round(time.Second))
		}
		w.Flush()

	case "explain":
		codecName := *codecArg
		if codecName == "" {
			codecName = tc.Candidates[0]
		}
		cd := measure(codecName)
		cfg := trainsim.Config{
			App: tc.App, Clust: tc.Cluster, Nodes: 4,
			DecompressPerFile: cd.DecompressPerFile, Ratio: cd.Ratio,
			RemoteFrac: 0.75,
		}
		b := cfg.Explain()
		fmt.Printf("%s on %s with %s (ratio %.2f), 4 nodes, per-iteration breakdown:\n",
			tc.App.Name, tc.Cluster.Name, codecName, cd.Ratio)
		w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
		fmt.Fprintf(w, "compute\t%v\n", b.Compute)
		fmt.Fprintf(w, "allreduce\t%v\n", b.Allreduce)
		fmt.Fprintf(w, "read (local)\t%v\n", b.Read)
		fmt.Fprintf(w, "remote transfer\t%v\n", b.RemoteTransfer)
		fmt.Fprintf(w, "decompress\t%v\n", b.Decompress)
		fmt.Fprintf(w, "iteration\t%v (%s bound)\n", b.Iter, b.Bound)
		w.Flush()

	default:
		log.Fatalf("unknown mode %q", *mode)
	}

	if *traceOut == "" && !*report && !*monitor {
		return
	}
	// Epoch replay: run the case's configuration through the per-rank
	// tracer and registry, then export/aggregate exactly as a live run
	// would — same formats, same straggler detector.
	codecName := *codecArg
	if codecName == "" {
		codecName = tc.Candidates[0]
	}
	cd := measure(codecName)
	n := *simRanks
	cfg := trainsim.Config{
		App: tc.App, Clust: tc.Cluster, Nodes: n,
		DecompressPerFile: cd.DecompressPerFile, Ratio: cd.Ratio,
		RemoteFrac: float64(n-1) / float64(n),
	}
	// The scenario: every flag adds one independent part.
	var sc trainsim.Scenario
	if *plan {
		sc.Plan = &trainsim.PlanConfig{AdmissionBytes: int64(*admitMB) << 20}
	}
	if *killRank >= 0 {
		if *killRank >= n {
			log.Fatalf("-chaos-kill-rank %d out of range (0..%d)", *killRank, n-1)
		}
		red, err := fanstore.ParseRedundancy(*redun)
		if err != nil {
			log.Fatal(err)
		}
		if red == (fanstore.Redundancy{}) {
			log.Fatalf("-chaos-kill-rank needs -redundancy ec(k,m); %q keeps no copy to reconstruct a lost rank from", red)
		}
		sc.Kill = &trainsim.ChaosConfig{KillRank: *killRank, KillEpoch: *killAt, K: red.K, M: red.M}
	}
	lastSkew := *skew
	if *monitor && lastSkew <= 0 {
		// Derive a skew that lands robustly past the detector: push the
		// skewed rank's I/O to 4x the compute term, so the async
		// pipeline cannot hide it and the epoch stretches well past the
		// 2x-median threshold even after bucket rounding.
		lastSkew = 4 * float64(cfg.ComputeTime()) / float64(cfg.IOTime())
	}

	// One replay per rank, each with its own tracer and registry, exported
	// and aggregated exactly as a live run would be.
	tracers := make([]*trace.Tracer, n)
	regs := make([]*metrics.Registry, n)
	replays := make([]*trainsim.Replay, n)
	for rank := range replays {
		tracers[rank] = trace.NewSynthetic(rank, 0)
		regs[rank] = metrics.NewRegistry()
		sink := trainsim.SimObserver{Tracer: tracers[rank], Metrics: regs[rank]}
		if rank == n-1 {
			sink.Skew = lastSkew
		}
		rsc := sc
		rsc.Rank = rank
		replays[rank] = cfg.NewReplay(*simFiles, rsc, sink)
	}
	if *monitor {
		runMonitored(replays, regs, *simEpoch, lastSkew, *opsAddr, *pace)
	} else {
		for _, rp := range replays {
			rp.Run(*simEpoch)
		}
	}
	var elapsed time.Duration
	snaps := make([]metrics.RegistrySnapshot, n)
	for rank, rp := range replays {
		if t := rp.Now(); t > elapsed {
			elapsed = t
		}
		snaps[rank] = regs[rank].Snapshot()
	}

	if *report || *monitor {
		rep := fanstore.BuildClusterReport(snaps, fanstore.ReportOptions{
			StragglerMetric: "trainsim.epoch.latency",
			Elapsed:         elapsed,
		})
		fmt.Print(rep.String())
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := trace.WriteChrome(f, tracers...); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace: wrote %s (load in Perfetto or chrome://tracing)\n", *traceOut)
	}
}

// runMonitored is the -monitor driver: the per-rank registries are
// (optionally) served on live ops endpoints while the epochs replay in
// lockstep, and the health monitor polls after every epoch — the
// simulated version of catching a straggler mid-run instead of in the
// post-run report.
func runMonitored(replays []*trainsim.Replay, regs []*metrics.Registry, epochs int, skew float64, opsAddr string, pace time.Duration) {
	last := len(replays) - 1
	events := obs.NewEventLog(0, 0)
	if opsAddr != "" {
		for r := range regs {
			addr, err := obs.OffsetAddr(opsAddr, r)
			if err != nil {
				log.Fatal(err)
			}
			so := obs.ServerOptions{Registry: regs[r]}
			if r == 0 {
				// Rank 0 hosts the monitor, so its endpoint also carries
				// the health instruments and the event log.
				so.Events = events
			}
			srv, err := obs.Serve(addr, so)
			if err != nil {
				log.Fatal(err)
			}
			defer srv.Close()
			fmt.Printf("rank %d: ops endpoints at http://%s\n", r, srv.Addr())
		}
	}
	res := trainsim.RunMonitored(replays, epochs, trainsim.MonitoredConfig{
		SkewRank: last,
		Events:   events,
		Health:   regs[0],
		Pace:     pace,
	})
	if res.FlaggedEpoch >= 0 {
		fmt.Printf("monitor: rank %d flagged as straggler after epoch %d of %d (while the run was live)\n",
			last, res.FlaggedEpoch, epochs)
	} else {
		fmt.Printf("monitor: no straggler flagged in %d epochs (skew %.1fx)\n", epochs, skew)
	}
	fmt.Printf("events:\n")
	_ = events.WriteText(os.Stdout)
}
