// Command fanstore-train runs a complete simulated data-parallel training
// job over FanStore: pack a synthetic dataset, mount it across ranks,
// train with per-epoch shuffling and an asynchronous prefetch pipeline,
// checkpoint every epoch, and report throughput and I/O statistics.
//
//	fanstore-train -ranks 4 -dataset EM -files 64 -epochs 3 -compressor lzsse8
//	fanstore-train -tcp -cache-policy immediate
//	fanstore-train -resume   # continue from the latest checkpoint
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/crc32"
	"log"
	"math/rand"
	"os"
	"strings"
	"time"

	"fanstore"
	"fanstore/internal/dataset"
	"fanstore/internal/prefetch"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fanstore-train: ")
	var (
		ranks      = flag.Int("ranks", 4, "data-parallel ranks")
		dsName     = flag.String("dataset", "EM", "EM|Tokamak|Lung|Astro|ImageNet|Language")
		files      = flag.Int("files", 64, "training file count")
		size       = flag.Int("size", 64<<10, "file size (bytes)")
		epochs     = flag.Int("epochs", 3, "epochs to train")
		batch      = flag.Int("batch", 8, "files per rank per iteration")
		compressor = flag.String("compressor", "lzsse8", "codec configuration or alias")
		workers    = flag.Int("io-threads", 4, "prefetch I/O threads per rank")
		plan       = flag.Bool("plan", true, "build a whole-epoch prefetch plan at epoch start and stage it under admission control (-plan=false fetches on demand)")
		admission  = flag.Int("admission", 0, "staged-bytes admission budget for -plan, MiB (0: live cache headroom)")
		policy     = flag.String("cache-policy", "fifo", "fifo|lru|immediate")
		cacheMB    = flag.Int("cache-mb", 64, "decompressed cache size per rank (MiB)")
		tcp        = flag.Bool("tcp", false, "carry messages over loopback TCP")
		resume     = flag.Bool("resume", false, "resume from the latest checkpoint epoch")
		seed       = flag.Int64("seed", 9, "dataset seed")
		traceOut   = flag.String("trace", "", "write a Chrome trace-event JSON timeline of all ranks to this file")
		report     = flag.Bool("report", false, "print the cluster-wide aggregated I/O report after training")
		statsJSON  = flag.Bool("stats-json", false, "emit the final merged registry snapshot as one JSON object on stdout")
		opsAddr    = flag.String("ops-addr", "", "serve live HTTP ops endpoints (/metrics /varz /series /healthz /statusz /trace /events); rank r listens on port+r (empty disables)")
		healthInt  = flag.Duration("health-interval", 0, "rank 0 polls every rank's registry at this period and flags stragglers mid-run (0 disables)")
	)
	flag.Parse()

	kind, ok := dataset.KindByName(*dsName)
	if !ok {
		log.Fatalf("unknown dataset %q", *dsName)
	}
	pol, ok := policyByName(*policy)
	if !ok {
		log.Fatalf("unknown cache policy %q", *policy)
	}

	// Data preparation (§V-B): done once, outside the job.
	g := dataset.Generator{Kind: kind, Seed: *seed, Size: *size}
	inputs := make([]fanstore.InputFile, *files)
	paths := make([]string, *files)
	for i := range inputs {
		f := g.File(i, *files)
		inputs[i] = fanstore.InputFile{Path: f.Path, Data: f.Data}
		paths[i] = f.Path
	}
	bundle, err := fanstore.Pack(inputs, fanstore.BuildOptions{
		Partitions: *ranks,
		Compressor: *compressor,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset %s: %d files x %d bytes, ratio %.2fx with %s\n",
		kind, *files, *size, bundle.Ratio(), *compressor)

	launch := fanstore.Run
	if *tcp {
		launch = fanstore.RunTCP
	}
	// The sampler emits the tail partial batch, so an uneven files /
	// (batch*ranks) split trains on every sample with aligned per-rank
	// iteration counts instead of silently dropping the remainder.
	itersPerEpoch := prefetch.SamplerIters(*files, *batch, *ranks)

	// Per-rank observability sinks, collected for post-run export: the
	// ranks run in-process, each writing only its own slot. Registries
	// are pre-created so rank 0's health monitor can fold all of them
	// while the run is live.
	tracers := make([]*fanstore.Tracer, *ranks)
	regs := make([]*fanstore.Registry, *ranks)
	for i := range regs {
		regs[i] = fanstore.NewRegistry()
	}
	var clusterReport fanstore.ClusterReport

	err = launch(*ranks, func(c *fanstore.Comm) error {
		reg := regs[c.Rank()]
		var tr *fanstore.Tracer
		if *traceOut != "" {
			tr = fanstore.NewTracer(c.Rank(), 0)
			tracers[c.Rank()] = tr
		}
		var events *fanstore.EventLog
		if *opsAddr != "" {
			events = fanstore.NewEventLog(c.Rank(), 0)
		}
		opts := fanstore.Options{
			CachePolicy: pol,
			CacheBytes:  int64(*cacheMB) << 20,
			Metrics:     reg,
			Tracer:      tr,
			Events:      events,
		}
		node, err := fanstore.Mount(c, [][]byte{bundle.Scatter[c.Rank()]}, nil, opts)
		if err != nil {
			return err
		}
		defer node.Close()

		// The admission budget lives on the node; the scheduler below
		// reads it through AdmissionSource on every admission decision.
		node.SetAdmissionBytes(int64(*admission) << 20)
		if *opsAddr != "" {
			addr, err := fanstore.OpsAddrForRank(*opsAddr, c.Rank())
			if err != nil {
				return err
			}
			ops, err := node.StartOps(addr)
			if err != nil {
				return err
			}
			defer ops.Close()
			fmt.Printf("rank %d: ops endpoints at http://%s\n", c.Rank(), ops.Addr())
		}
		if *healthInt > 0 && c.Rank() == 0 {
			mon := fanstore.NewHealthMonitor(fanstore.HealthMonitorOptions{
				Interval: *healthInt,
				Collect:  fanstore.CollectRegistries(regs),
				Flag:     fanstore.FlagStragglers(fanstore.ReportOptions{}),
				Metrics:  reg,
				Events:   events,
			})
			mon.Start()
			defer mon.Stop()
		}

		startEpoch := 0
		var weights uint32
		if *resume {
			data, epoch, ok, err := node.Resume("ckpt")
			if err != nil {
				return err
			}
			if ok {
				startEpoch = epoch + 1
				fmt.Sscanf(string(data), "weights=%x", &weights)
				if c.Rank() == 0 {
					fmt.Printf("resuming from epoch %d\n", epoch)
				}
			}
		}

		start := time.Now()
		for epoch := startEpoch; epoch < startEpoch+*epochs; epoch++ {
			order := rand.New(rand.NewSource(int64(epoch))).Perm(*files)
			shuffled := make([]string, *files)
			for i, idx := range order {
				shuffled[i] = paths[idx]
			}
			popts := prefetch.Options{Workers: *workers, Depth: 2, Metrics: reg, Tracer: tr}
			sampler := prefetch.RangeSampler(shuffled, *batch, c.Rank(), *ranks)
			if *plan {
				// The permutation is fully known now, so materialize the
				// epoch's remote access sequence and stream it under
				// cache-pressure admission control.
				epochPlan := prefetch.BuildPlan(sampler, node)
				popts.Scheduler = prefetch.NewScheduler(node, epochPlan, prefetch.SchedOptions{
					AdmissionSource: node.AdmissionBytes,
					Metrics:         reg,
					Tracer:          tr,
				})
			}
			pipe := prefetch.New(node, sampler, popts)
			for it := 0; it < itersPerEpoch; it++ {
				b, ok, err := pipe.Next()
				if err != nil {
					pipe.Stop()
					return err
				}
				if !ok {
					break
				}
				var grad uint32
				for _, img := range b.Data {
					grad ^= crc32.ChecksumIEEE(img)
				}
				parts, err := c.Allgather(u32le(grad))
				if err != nil {
					return err
				}
				for _, p := range parts {
					weights ^= le32(p)
				}
			}
			pipe.Stop()
			ckpt := fmt.Sprintf("ckpt/rank%d-epoch%03d.bin", c.Rank(), epoch)
			if err := node.WriteFile(ckpt, []byte(fmt.Sprintf("weights=%08x", weights))); err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			if c.Rank() == 0 {
				fmt.Printf("epoch %3d: weights=%08x\n", epoch, weights)
			}
		}

		// One buffered write per rank: the ranks run in-process and their
		// lines must not interleave.
		var out bytes.Buffer
		fmt.Fprintf(&out, "rank %d:\n", c.Rank())
		fanstore.WriteSummary(&out, reg.Snapshot(), time.Since(start))
		os.Stdout.Write(out.Bytes())

		if *report || *statsJSON {
			// Collective: every rank contributes its snapshot; rank 0
			// keeps the merged report for post-run printing.
			rep, err := fanstore.GatherReport(c, reg, fanstore.ReportOptions{Elapsed: time.Since(start)})
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				clusterReport = rep
			}
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	if *report {
		fmt.Print(clusterReport.String())
	}
	if *statsJSON {
		out, err := json.Marshal(clusterReport.Merged)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s\n", out)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := fanstore.WriteChromeTrace(f, tracers...); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace: wrote %s (load in Perfetto or chrome://tracing)\n", *traceOut)
	}
}

func u32le(v uint32) []byte {
	return []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}
}

func le32(p []byte) uint32 {
	return uint32(p[0]) | uint32(p[1])<<8 | uint32(p[2])<<16 | uint32(p[3])<<24
}

func policyByName(name string) (fanstore.Policy, bool) {
	switch strings.ToLower(name) {
	case "fifo":
		return fanstore.FIFO, true
	case "lru":
		return fanstore.LRU, true
	case "immediate":
		return fanstore.Immediate, true
	}
	return 0, false
}
