package trainsim

import (
	"time"

	"fanstore/internal/metrics"
	"fanstore/internal/trace"
)

// SimObserver carries the observability sinks for a simulated run: a
// synthetic tracer (zero-epoch timeline) and a metrics registry. Either
// may be nil; the simulation then skips that sink.
type SimObserver struct {
	Tracer  *trace.Tracer
	Metrics *metrics.Registry
	// Skew multiplies this rank's I/O time, injecting a deterministic
	// straggler (1 or 0 means healthy). The cluster report's straggler
	// detector must flag a rank simulated with Skew >> 1.
	Skew float64
}

// Scenario is what happens to a replayed run beyond the plain epoch
// loop. Every part is optional and independent of the others: a rank
// loss during a join with the plan's cold fill priced is one Scenario
// with three parts set. Each part emits the live store's
// instruments for what it simulates, so the cluster report renders a
// simulated run like a real one.
type Scenario struct {
	// Rank is the rank this replay stands for (one Replay per rank, like
	// one node per rank). Only Kill reads it.
	Rank int
	Plan *PlanConfig
	Join *JoinConfig
	Kill *ChaosConfig
}

// PlanConfig prices the epoch-plan scheduler's cold fill: an async
// pipeline hides steady-state I/O behind compute, but each epoch stalls
// while its first batches stage — one batched round trip of the I/O term
// with the permutation known up front (an OpPrefetch span and
// "trainsim.fill.latency"). Sync pipelines never overlap and pay none.
type PlanConfig struct {
	// AdmissionBytes caps the bytes the scheduler may hold staged-but-
	// unread (0: unbounded). It bounds "trainsim.plan.staged.bytes" (min
	// of it and the epoch's remote bytes); it is not a time term.
	AdmissionBytes int64
}

// JoinConfig has a node join the elastic cluster mid-training. The join
// epoch runs on the old membership (the handoff only commits once the
// moves land) with the delta-rebalance stream riding the fabric — an
// OpFetch "rebalance" span, "rebalance.bytes.moved",
// "trainsim.rebalance.latency", "rebalance.partitions.pending" 1 -> 0;
// the commit bumps "member.map.version" and Nodes+1 members run the rest.
type JoinConfig struct {
	// JoinEpoch is the 0-based epoch during which the new node joins.
	JoinEpoch int
	// MovedFrac is the fraction of the dataset's compressed bytes the
	// delta rebalance streams to the joiner (default 1/(Nodes+1): the
	// joiner's fair share, the minimal-movement delta).
	MovedFrac float64
}

// ChaosConfig fail-stops a rank of an ec(k,m) elastic cluster at the
// start of KillEpoch; the victim's timeline ends there. Survivors serve
// the dead rank's share (1/Nodes) of each batch of that epoch by stripe
// reconstruction ("ec.degraded.reads", "ec.reconstruct.latency", an
// OpFetch "degraded" span) while a "repair" stream, with the join's
// instruments plus "ec.repair.bytes", re-homes it between two commits
// (dead-mark, repair); Nodes-1 members run the rest. A cluster of one
// has no survivor and ignores the part.
type ChaosConfig struct {
	KillRank, KillEpoch int
	// K, M is the ec(k,m) geometry of the mount (default 4,2): a degraded
	// read gathers (k+m)/k times the object's bytes across the fabric and
	// the repair moves the dead rank's share at (1 + m/k).
	K, M int
}

// Replay steps one rank's training run an epoch at a time onto the
// observer's sinks: per epoch an OpEpoch span, the wait/compute split of
// §VI-A, "trainsim.epoch.latency" / "trainsim.iter.latency" and
// "trainsim.epochs" / "trainsim.iters", plus what the Scenario adds.
type Replay struct {
	cfg      Config // the current membership; commits resize it
	dataSize int
	sc       Scenario
	obs      SimObserver // Skew defaulted to 1

	epoch      int
	now        time.Duration
	mapVersion int64 // a static map is version 1; every commit adds one
	scattered  bool  // data spread over all members: RemoteFrac follows (N-1)/N
}

// NewReplay starts a replay of c over dataSize files. With the zero
// Scenario and an unskewed observer, Run(epochs) equals
// TrainTime(epochs, dataSize).
func (c Config) NewReplay(dataSize int, sc Scenario, obs SimObserver) *Replay {
	r := &Replay{cfg: c, dataSize: dataSize, sc: sc, obs: obs, mapVersion: 1, scattered: c.RemoteFrac > 0}
	if obs.Skew <= 0 {
		r.obs.Skew = 1
	}
	if sc.Plan != nil {
		remote := int64(float64(c.App.FileSizeBytes()) * c.RemoteFrac * float64(dataSize) / float64(c.Nodes))
		if a := sc.Plan.AdmissionBytes; a > 0 && remote > a {
			remote = a
		}
		r.obs.Metrics.Counter("trainsim.plan.staged.bytes").Add(remote)
	}
	return r
}

// Now returns the simulated clock: the wall time of the epochs replayed
// so far, including whatever a background stream did not hide.
func (r *Replay) Now() time.Duration { return r.now }

// Run replays up to epochs more epochs (fewer when the rank dies) and
// returns Now.
func (r *Replay) Run(epochs int) time.Duration {
	for i := 0; i < epochs && r.Epoch(); i++ {
	}
	return r.now
}

// Epoch replays the next epoch. It returns false, replaying nothing,
// once this rank has been killed.
func (r *Replay) Epoch() bool {
	sc, reg := r.sc, r.obs.Metrics
	// A part whose epoch is out of range needs no special case: the epoch
	// index never reaches it.
	killed := sc.Kill != nil && r.epoch == sc.Kill.KillEpoch && r.cfg.Nodes >= 2
	joined := sc.Join != nil && r.epoch == sc.Join.JoinEpoch
	if killed && sc.Rank == sc.Kill.KillRank {
		return false // the victim never gets past its kill epoch
	}

	cfg := r.cfg
	iters := NumIters(1, r.dataSize, cfg.App.CBatch*cfg.Nodes)

	var degraded time.Duration // per-iteration reconstruction cost of a kill epoch
	if killed {
		r.commit() // the dead-mark lands as the epoch starts
		degraded = r.degrade(cfg, iters)
	}
	if killed || joined {
		reg.Gauge("rebalance.partitions.pending").Set(1)
	}

	// One epoch at a raw I/O term: skew multiplies I/O only, a degraded
	// read adds to it, §VI-A composes it with compute, and the plan's
	// cold fill is one more round of it before overlap primes.
	io := time.Duration(float64(cfg.IOTime())*r.obs.Skew) + degraded
	iter := cfg.iterTime(io)
	var fill time.Duration
	if sc.Plan != nil && !cfg.App.Sync {
		fill = io
	}
	dur := fill + time.Duration(iters)*iter
	stall := fill + time.Duration(iters)*(iter-cfg.ComputeTime())

	// The wait/compute split is aggregated per epoch (one span each) so
	// the trace stays readable at any iteration count; the epoch span
	// carries the total.
	tr := r.obs.Tracer
	tr.Record(trace.OpEpoch, "", trace.OutcomeNone, r.now, dur)
	if fill > 0 {
		tr.Record(trace.OpPrefetch, "", trace.OutcomeRemoteFetch, r.now, fill)
	}
	if rest := stall - fill; rest > 0 {
		tr.Record(trace.OpWait, "", trace.OutcomeNone, r.now+fill, rest)
	}
	tr.Record(trace.OpCompute, "", trace.OutcomeNone, r.now+stall, dur-stall)
	reg.Histogram("trainsim.epoch.latency").Observe(dur)
	iterHist := reg.Histogram("trainsim.iter.latency")
	for i := 0; i < iters; i++ {
		iterHist.Observe(iter)
	}
	reg.Counter("trainsim.epochs").Inc()
	reg.Counter("trainsim.iters").Add(int64(iters))
	if sc.Plan != nil {
		reg.Histogram("trainsim.fill.latency").Observe(fill)
	}

	// Background streams ride the fabric alongside the epoch and stretch
	// it only by what they do not hide: the commit (and the next epoch's
	// membership) waits for the last handoff.
	dataBytes := int64(float64(cfg.App.FileSizeBytes()) * float64(r.dataSize) / cfg.ratio())
	if killed {
		// Each survivor pulls k shards' worth of its part of the dead
		// rank's share and re-pushes the re-encoded stripe: (1 + m/k)
		// times the lost bytes cross the fabric.
		k, m := sc.Kill.geometry()
		perSurvivor := int64(float64(dataBytes)*(1/float64(r.cfg.Nodes))) / int64(r.cfg.Nodes-1)
		repairBytes := int64(float64(perSurvivor) * (1 + float64(m)/float64(k)))
		reg.Counter("ec.repair.bytes").Add(repairBytes)
		dur = r.stream("repair", perSurvivor, repairBytes, dur)
	}
	if joined {
		movedFrac := sc.Join.MovedFrac
		if movedFrac <= 0 {
			movedFrac = 1 / float64(r.cfg.Nodes+1)
		}
		moved := int64(float64(dataBytes) * movedFrac)
		dur = r.stream("rebalance", moved, moved, dur)
	}
	r.now += dur
	if killed || joined {
		reg.Gauge("rebalance.partitions.pending").Set(0)
	}
	if killed {
		r.resize(-1)
	}
	if joined {
		r.resize(+1)
	}
	r.epoch++
	return true
}

// degrade prices a kill epoch's reads of the dead rank's share, which
// reconstruct from shards: per degraded file the fabric carries (k+m)/k
// times the compressed size (k shards plus parity-sized slack versus one
// whole object) and the matrix work costs about one decode. It returns
// the cost added to each iteration's I/O.
func (r *Replay) degrade(cfg Config, iters int) time.Duration {
	k, m := r.sc.Kill.geometry()
	fabric := cfg.Clust.Fabric
	compSize := int64(float64(cfg.App.FileSizeBytes()) / cfg.ratio())
	reconstruct := fabric.Transfer(int64(float64(compSize)*float64(k+m)/float64(k))) + cfg.DecompressPerFile
	extraPerFile := reconstruct - fabric.Transfer(compSize)
	perIter := 1 / float64(cfg.Nodes) * float64(cfg.App.CBatch)
	extraPerIter := time.Duration(perIter * float64(extraPerFile) / float64(cfg.ioThreads()))

	reads := int64(float64(iters) * perIter)
	if reads < 1 {
		reads = 1
	}
	r.obs.Metrics.Counter("ec.degraded.reads").Add(reads)
	recHist := r.obs.Metrics.Histogram("ec.reconstruct.latency")
	for i := int64(0); i < reads; i++ {
		recHist.Observe(reconstruct)
	}
	r.obs.Tracer.Record(trace.OpFetch, "degraded", trace.OutcomeDegraded, r.now,
		time.Duration(iters)*extraPerIter)
	return extraPerIter
}

// stream replays one background partition stream that starts with the
// epoch: moved bytes change owner, wire bytes cross the fabric. It
// returns the epoch's duration stretched by what the stream does not
// hide behind it.
func (r *Replay) stream(label string, moved, wire int64, epochDur time.Duration) time.Duration {
	d := r.cfg.Clust.Fabric.Transfer(wire)
	r.obs.Tracer.Record(trace.OpFetch, label, trace.OutcomeRemoteFetch, r.now, d)
	r.obs.Metrics.Counter("rebalance.bytes.moved").Add(moved)
	r.obs.Metrics.Histogram("trainsim.rebalance.latency").Observe(d)
	if d > epochDur {
		return d
	}
	return epochDur
}

// commit publishes one cluster-map change.
func (r *Replay) commit() {
	r.mapVersion++
	r.obs.Metrics.Gauge("member.map.version").Set(r.mapVersion)
}

// resize commits a membership change of delta nodes. Scattered data stays
// uniformly sampled over the new member count.
func (r *Replay) resize(delta int) {
	r.commit()
	r.cfg.Nodes += delta
	if n := r.cfg.Nodes; r.scattered && n >= 1 {
		r.cfg.RemoteFrac = float64(n-1) / float64(n)
	}
}

func (cc *ChaosConfig) geometry() (k, m int) {
	if cc.K <= 0 {
		return 4, 2
	}
	return cc.K, cc.M
}
