// Command fanstore-daemon runs ONE rank of a multi-process FanStore
// deployment — the paper's mpiexec shape (§V-D), with a rendezvous
// directory standing in for the process manager. Start one per "node",
// all pointing at the same rendezvous directory and partition files from
// fanstore-prep:
//
//	fanstore-prep -synthetic EM -files 32 -partitions 4 -out packed
//	for r in 0 1 2 3; do
//	  fanstore-daemon -rendezvous /tmp/fst -rank $r -size 4 \
//	                  -part packed/part-000$r.fst -reads 64 &
//	done; wait
//
// Each daemon maps its partition files read-only (the packed file is the
// node-local store, §IV-C1), joins the collective metadata exchange,
// serves its objects to peers, reads -reads random files from the global
// namespace (fetching remote ones over TCP), checks each against the CRC
// its Stat reports, prints the summary of its registry, and shuts down
// collectively. A partition file must not change while its daemon runs.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"hash/crc32"
	"log"
	"math/rand"
	"os"
	"strings"
	"time"

	"fanstore"
	"fanstore/internal/mpi"
	"fanstore/internal/pack"
	"fanstore/internal/prefetch"
)

func main() {
	log.SetFlags(0)
	var (
		rendezvous = flag.String("rendezvous", "", "shared rendezvous directory (required)")
		rank       = flag.Int("rank", -1, "this process's rank")
		size       = flag.Int("size", 0, "world size")
		parts      = flag.String("part", "", "comma-separated partition files this rank owns")
		broadcast  = flag.String("broadcast", "", "broadcast partition file (optional)")
		reads      = flag.Int("reads", 32, "random whole-file reads to perform")
		timeout    = flag.Duration("timeout", 30*time.Second, "rendezvous timeout")
		seed       = flag.Int64("seed", 0, "read-order seed (default: rank)")
		fetchTO    = flag.Duration("fetch-timeout", 0, "per-attempt deadline on remote fetches (0: none)")
		fetchRetry = flag.Int("fetch-retries", 0, "extra same-peer attempts after a timed-out or errored fetch")
		lookahead  = flag.Int("prefetch", 0, "plan the reads in steps of this many and stage the plan ahead of the read loop (0: fetch on demand)")
		traceOut   = flag.String("trace", "", "write this rank's Chrome trace-event JSON timeline to this file")
		report     = flag.Bool("report", false, "run the cluster report collective; rank 0 prints the merged view")
		members    = flag.Int("members", 0, "initial elastic members: ranks 0..members-1 mount, the rest are spare slots (0: static world)")
		joinLate   = flag.Bool("join", false, "join a running elastic cluster as a new member (requires -members; no -part)")
		leaveEarly = flag.Bool("leave", false, "leave the elastic cluster after the reads, draining partitions to the survivors")
		redun      = flag.String("redundancy", "", "elastic redundancy: none (default) or ec(k,m); n copies = ec(1,n-2)")
		opsAddr    = flag.String("ops-addr", "", "serve live HTTP ops endpoints; pass the same base address to every daemon, rank r listens on port+r (empty disables)")
		healthInt  = flag.Duration("health-interval", 0, "rank 0 scrapes every member's /varz at this period and flags stragglers mid-run (needs -ops-addr; 0 disables)")
		healthN    = flag.Int("health-members", 0, "member count the health monitor scrapes (0: -members for elastic worlds, else -size)")
	)
	flag.Parse()
	log.SetPrefix(fmt.Sprintf("fanstore-daemon[%d]: ", *rank))

	elastic := *members > 0 || *joinLate
	if *rendezvous == "" || *rank < 0 || *size <= 0 {
		log.Fatal("-rendezvous, -rank and -size are required")
	}
	if *joinLate && *members <= 0 {
		log.Fatal("-join requires -members (the cluster's initial member count)")
	}
	if *leaveEarly && !elastic {
		log.Fatal("-leave requires an elastic cluster (-members/-join)")
	}
	if *parts == "" && !*joinLate {
		log.Fatal("-part is required (a joining member receives partitions from the rebalance instead)")
	}

	// The node serves straight from the mappings; they are released only
	// after Close or LeaveCluster has returned, so a read of a partition
	// past shutdown breaks this run (a fault, or a peer's lost reply)
	// instead of passing unseen.
	var unmaps []func() error
	mapPart := func(path string) []byte {
		blob, unmap, err := pack.Map(path)
		if err != nil {
			log.Fatal(err)
		}
		unmaps = append(unmaps, unmap)
		return blob
	}
	var own [][]byte
	if *parts != "" {
		for _, p := range strings.Split(*parts, ",") {
			own = append(own, mapPart(strings.TrimSpace(p)))
		}
	}
	var bcast []byte
	if *broadcast != "" {
		bcast = mapPart(*broadcast)
	}

	var comm *fanstore.Comm
	var leave func()
	var err error
	if elastic {
		// Only the initial members rendezvous; spare slots (and this
		// rank, if it joins late) resolve lazily when they come up.
		waitFor := make([]int, 0, *members)
		for r := 0; r < *members; r++ {
			waitFor = append(waitFor, r)
		}
		comm, leave, err = mpi.JoinTCPMembers(*rendezvous, *rank, *size, waitFor, *timeout)
	} else {
		comm, leave, err = mpi.JoinTCP(*rendezvous, *rank, *size, *timeout)
	}
	if err != nil {
		log.Fatal(err)
	}
	defer leave()

	reg := fanstore.NewRegistry()
	var tr *fanstore.Tracer
	if *traceOut != "" {
		tr = fanstore.NewTracer(*rank, 0)
	}
	red, err := fanstore.ParseRedundancy(*redun)
	if err != nil {
		log.Fatal(err)
	}
	if *healthInt > 0 && *opsAddr == "" {
		log.Fatal("-health-interval needs -ops-addr (the monitor scrapes member /varz endpoints)")
	}
	var events *fanstore.EventLog
	if *opsAddr != "" {
		events = fanstore.NewEventLog(*rank, 0)
	}
	opts := fanstore.Options{
		FetchTimeout: *fetchTO,
		FetchRetries: *fetchRetry,
		Metrics:      reg,
		Tracer:       tr,
		Redundancy:   red,
		Events:       events,
	}
	var node *fanstore.Node
	if elastic {
		eopts := fanstore.ElasticOptions{Options: opts, InitialMembers: *members}
		if *joinLate {
			node, err = fanstore.JoinCluster(comm, 0, eopts)
		} else {
			node, err = fanstore.MountElastic(comm, own, eopts)
		}
	} else {
		node, err = fanstore.Mount(comm, own, bcast, opts)
	}
	if err != nil {
		log.Fatal(err)
	}
	if elastic {
		log.Printf("mounted: %d files global, %d local (elastic, node %d, map v%d)",
			node.NumFiles(), node.LocalFiles(), node.ID(), node.MapVersion())
	} else {
		log.Printf("mounted: %d files global, %d local", node.NumFiles(), node.LocalFiles())
	}

	if *opsAddr != "" {
		addr, err := fanstore.OpsAddrForRank(*opsAddr, *rank)
		if err != nil {
			log.Fatal(err)
		}
		ops, err := node.StartOps(addr)
		if err != nil {
			log.Fatal(err)
		}
		defer ops.Close()
		log.Printf("ops: serving http://%s", ops.Addr())
	}
	if *healthInt > 0 && *rank == 0 {
		n := *healthN
		if n <= 0 {
			n = *size
			if elastic && *members > 0 {
				n = *members
			}
		}
		peers := make([]string, n)
		for r := range peers {
			addr, err := fanstore.OpsAddrForRank(*opsAddr, r)
			if err != nil {
				log.Fatal(err)
			}
			peers[r] = addr
		}
		mon := fanstore.NewHealthMonitor(fanstore.HealthMonitorOptions{
			Interval: *healthInt,
			Collect:  fanstore.CollectHTTP(peers, 0),
			Flag:     fanstore.FlagStragglers(fanstore.ReportOptions{}),
			Metrics:  reg,
			Events:   events,
		})
		mon.Start()
		defer mon.Stop()
		log.Printf("health: monitoring %d members every %v", n, *healthInt)
	}

	// Enumerate the namespace, then read random files — local or remote.
	var paths []string
	var walk func(dir string) error
	walk = func(dir string) error {
		entries, err := node.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, e := range entries {
			child := e.Name
			if dir != "" {
				child = dir + "/" + e.Name
			}
			if e.IsDir {
				if err := walk(child); err != nil {
					return err
				}
			} else {
				paths = append(paths, child)
			}
		}
		return nil
	}
	if err := walk(""); err != nil {
		log.Fatal(err)
	}
	s := *seed
	if s == 0 {
		s = int64(*rank + 1)
	}
	rng := rand.New(rand.NewSource(s))
	// The read order is drawn up front — the training-loop shape, where
	// the sampler's sequence is known ahead of the consumer — so it is a
	// sampler: -prefetch plans it in steps of that many reads and a
	// scheduler stages the plan ahead of the loop below.
	sequence := make([]string, *reads)
	for i := range sequence {
		sequence[i] = paths[rng.Intn(len(paths))]
	}
	var sched *prefetch.Scheduler // nil: fetch on demand
	start := time.Now()
	if *lookahead > 0 {
		sampler := prefetch.RangeSampler(sequence, *lookahead, 0, 1)
		sched = prefetch.NewScheduler(node, prefetch.BuildPlan(sampler, node),
			prefetch.SchedOptions{BatchFiles: *lookahead, Metrics: reg})
	}
	var byteCount int64
	for i, path := range sequence {
		data, err := node.ReadFile(path)
		if err != nil {
			log.Fatal(err)
		}
		info, err := node.Stat(path)
		if err != nil {
			log.Fatal(err)
		}
		if crc := crc32.ChecksumIEEE(data); crc != info.CRC32 {
			log.Fatalf("%s: read %d bytes with CRC %08x, packed CRC is %08x", path, len(data), crc, info.CRC32)
		}
		byteCount += int64(len(data))
		if sched != nil && (i+1)%*lookahead == 0 {
			sched.Advance(i / *lookahead)
		}
	}
	sched.Stop()
	elapsed := time.Since(start)
	log.Printf("read %d files (%d bytes) in %v", *reads, byteCount, elapsed.Round(time.Millisecond))
	log.Printf("verified %d reads", *reads)
	// One write, so daemons sharing a terminal do not interleave their lines.
	var summary bytes.Buffer
	fanstore.WriteSummary(&summary, reg.Snapshot(), elapsed)
	log.Writer().Write(summary.Bytes())

	if *report {
		if elastic {
			// The report reduction is a world-wide collective; with
			// partial membership the empty slots would never answer.
			log.Printf("report: skipped (collective report needs a static world)")
		} else {
			// Collective: every daemon must be launched with -report too.
			rep, err := fanstore.GatherReport(comm, reg, fanstore.ReportOptions{Elapsed: elapsed})
			if err != nil {
				log.Fatal(err)
			}
			if *rank == 0 {
				fmt.Print(rep.String())
			}
		}
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := fanstore.WriteChromeTrace(f, tr); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("trace: wrote %s", *traceOut)
	}

	// Shutdown. A leaving member drains its partitions to the survivors
	// and departs alone; everyone else shuts down collectively (the
	// elastic path replaces the barrier with a bye/ack handshake through
	// the coordinator) — no rank exits while peers may still fetch.
	if *leaveEarly {
		err = node.LeaveCluster()
	} else {
		err = node.Close()
	}
	if err != nil {
		log.Fatal(err)
	}
	for _, unmap := range unmaps {
		if err := unmap(); err != nil {
			log.Fatal(err)
		}
	}
	if *leaveEarly {
		log.Printf("left the cluster")
	} else {
		log.Printf("done")
	}
}
