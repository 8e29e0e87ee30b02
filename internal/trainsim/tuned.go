package trainsim

// The autotuning ablation: the same analytic iteration model the other
// replays use, but with the decode-worker and fetch-batch knobs live —
// each simulated epoch emits the registry signals the real store would
// (decode queue wait, per-batch fetch latency, iteration throughput)
// and then hands the clock to a tune.Controller, whose knob moves
// reshape the next epoch. Against it the harness prices the same run
// with the knobs frozen (static) and with the best values a power-of-2
// grid sweep finds (hand-tuned), which is the paper-style question the
// ablation answers: how close does online tuning get to oracle knobs,
// starting from a mis-tune, and how fast.

import (
	"math"
	"time"

	"fanstore/internal/metrics"
	"fanstore/internal/trace"
	"fanstore/internal/tune"
)

// TuneSim parameterizes TraceEpochsTuned's knob-sensitive terms.
type TuneSim struct {
	// Cores bounds useful decode parallelism: workers beyond it add
	// nothing (default 8). This is what makes "decode.workers" a knob
	// with a flat top the controller must detect by guarded probing.
	Cores int
	// RTT is the per-batched-fetch round trip (default 2ms). Small batches
	// pay it often; the batch knob amortizes it.
	RTT time.Duration
	// BurstPerItem is the per-item serialization cost inside one batch
	// (default 20µs). Large batches pay it on the partial tail, which
	// gives the batch knob an interior optimum instead of "bigger is
	// always better".
	BurstPerItem time.Duration
	// DecodeWorkers and BatchItems are the knobs' starting values
	// (defaults 1 and 64) — set them off-optimum to simulate a
	// mis-tuned mount.
	DecodeWorkers int
	BatchItems    int
	// Controller overrides tune.Options fields; Registry and Knobs are
	// always filled in by the replay (Interval defaults to 1ms of
	// simulated time — every epoch must last at least half of it so
	// the controller's lookback isolates single windows).
	Controller tune.Options
}

func (ts *TuneSim) defaults() {
	if ts.Cores <= 0 {
		ts.Cores = 8
	}
	if ts.RTT <= 0 {
		ts.RTT = 2 * time.Millisecond
	}
	if ts.BurstPerItem <= 0 {
		ts.BurstPerItem = 20 * time.Microsecond
	}
	if ts.DecodeWorkers <= 0 {
		ts.DecodeWorkers = 1
	}
	if ts.BatchItems <= 0 {
		ts.BatchItems = 64
	}
}

// model returns the knob-dependent per-iteration terms: the composed
// iteration time, the decode-queue wait one file observes, the
// round-trip one batched fetch observes, and the batch count.
func (ts TuneSim) model(c Config, workers, batch int) (iter, decodeWait, fetchBatch time.Duration, batches int) {
	app := c.App
	eff := workers
	if eff > ts.Cores {
		eff = ts.Cores
	}
	if eff < 1 {
		eff = 1
	}
	decode := time.Duration(float64(c.DecompressPerFile) * float64(app.CBatch) / float64(eff))
	// Queue wait: with eff effective workers draining CBatch jobs, a
	// file behind ceil(CBatch/eff)-1 service rounds waits that long.
	rounds := (app.CBatch + eff - 1) / eff
	decodeWait = time.Duration(rounds-1) * c.DecompressPerFile

	remote := c.RemoteFrac * float64(app.CBatch)
	fetchBatch = ts.RTT + time.Duration(batch)*ts.BurstPerItem
	var fetch time.Duration
	if remote > 0 {
		batches = int(math.Ceil(remote / float64(batch)))
		// The partial tail batch is priced in full: that is the waste
		// an oversized batch knob pays.
		fetch = time.Duration(batches) * fetchBatch
	}
	io := decode + fetch
	compute := c.ComputeTime()
	iter = compute + io
	if !app.Sync {
		iter = compute
		if io > compute {
			iter = io
		}
	}
	return iter, decodeWait, fetchBatch, batches
}

// TunedResult is the autotuning ablation's scorecard.
type TunedResult struct {
	// Wall is the tuned run's simulated wall time; StaticWall freezes
	// the knobs at their starting values; BestWall runs the grid-swept
	// hand-tuned knobs from epoch 0.
	Wall, StaticWall, BestWall time.Duration
	// FinalEpoch is the sustained per-epoch time at the end of the
	// tuned run — the median of the trailing quarter of EpochDurs, so
	// one late guarded probe cannot misreport convergence; BestEpoch
	// is the per-epoch time at the hand-tuned values. FinalEpoch <=
	// ~1.05*BestEpoch means the controller found the oracle's regime.
	FinalEpoch, BestEpoch time.Duration
	// The knob values: where the sweep's oracle sits and where the
	// controller landed.
	BestWorkers, BestBatch   int
	FinalWorkers, FinalBatch int
	// Controller decision counts.
	Moves, Reverts int64
	// EpochDurs is the tuned run's per-epoch trace — the convergence
	// curve the tests and EXPERIMENTS.md walk. WorkersTrace and
	// BatchTrace record the knob values each epoch ran at (note the
	// raw FinalWorkers/FinalBatch can be a late guarded probe caught
	// in flight; the traces show where the controller rests).
	EpochDurs    []time.Duration
	WorkersTrace []int
	BatchTrace   []int
}

// TraceEpochsTuned replays a training run with the autotuner in the
// loop. Each epoch runs at the current knob values, emits the live
// store's signal instruments — "decomp.queue.wait.latency" per file
// wait, "fanstore.fetch.latency" per batch round trip — plus the usual
// trainsim epoch/iteration instruments and spans, then ticks the
// controller at the simulated clock; kept moves reshape the next
// epoch. The controller's objective is iteration throughput
// ("trainsim.iters" rate, tie-broken by "trainsim.iter.latency" p99).
// The returned result also prices the static and hand-tuned runs so
// callers get the full ablation from one call.
func (c Config) TraceEpochsTuned(epochs, dataSize int, ts TuneSim, obs SimObserver) TunedResult {
	ts.defaults()
	if obs.Metrics == nil {
		// The controller both reads signals from and registers tune.*
		// instruments in a registry; a silent run still needs one.
		obs.Metrics = metrics.NewRegistry()
	}

	iters := NumIters(1, dataSize, c.App.CBatch*c.Nodes)
	if iters < 1 {
		iters = 1
	}

	// The hand-tuned oracle: sweep both knobs over their power-of-2
	// grids and keep the fastest iteration.
	res := TunedResult{}
	for w := 1; w <= 64; w *= 2 {
		for b := 4; b <= 1024; b *= 2 {
			it, _, _, _ := ts.model(c, w, b)
			if res.BestEpoch == 0 || it < res.BestEpoch {
				res.BestEpoch = it
				res.BestWorkers, res.BestBatch = w, b
			}
		}
	}
	res.BestEpoch *= time.Duration(iters)
	res.BestWall = time.Duration(epochs) * res.BestEpoch
	staticIter, _, _, _ := ts.model(c, ts.DecodeWorkers, ts.BatchItems)
	res.StaticWall = time.Duration(epochs) * time.Duration(iters) * staticIter

	// Live knobs: plain variables closed over by the knob callbacks —
	// the replay and the controller tick on one goroutine.
	workers := int64(ts.DecodeWorkers)
	batch := int64(ts.BatchItems)
	opts := ts.Controller
	opts.Registry = obs.Metrics
	opts.Knobs = []tune.Knob{
		tune.StepKnob("decode.workers", 1, 64,
			func() int64 { return workers },
			func(v int64) { workers = v }),
		tune.StepKnob("batch.items", 4, 1024,
			func() int64 { return batch },
			func(v int64) { batch = v }),
	}
	if opts.Interval <= 0 {
		opts.Interval = time.Millisecond
	}
	if len(opts.ObjectiveCounters) == 0 {
		opts.ObjectiveCounters = []string{"trainsim.iters"}
	}
	if opts.ObjectiveLatency == "" {
		opts.ObjectiveLatency = "trainsim.iter.latency"
	}
	ctrl := tune.New(opts)

	epochHist := obs.Metrics.Histogram("trainsim.epoch.latency")
	iterHist := obs.Metrics.Histogram("trainsim.iter.latency")
	waitHist := obs.Metrics.Histogram("decomp.queue.wait.latency")
	fetchHist := obs.Metrics.Histogram("fanstore.fetch.latency")
	epochCount := obs.Metrics.Counter("trainsim.epochs")
	iterCount := obs.Metrics.Counter("trainsim.iters")

	skew := obs.Skew
	if skew <= 0 {
		skew = 1
	}
	base := time.Unix(0, 0)
	var now time.Duration
	ctrl.Tick(base) // prime the sampler baseline before epoch 0
	res.EpochDurs = make([]time.Duration, 0, epochs)
	for e := 0; e < epochs; e++ {
		iter, wait, fetchB, batches := ts.model(c, int(workers), int(batch))
		iter = time.Duration(float64(iter) * skew)
		epochDur := time.Duration(iters) * iter
		compute := c.ComputeTime()
		epochStall := epochDur - time.Duration(iters)*compute
		if epochStall < 0 {
			epochStall = 0
		}

		obs.Tracer.Record(trace.OpEpoch, "", trace.OutcomeNone, now, epochDur)
		if epochStall > 0 {
			obs.Tracer.Record(trace.OpWait, "", trace.OutcomeNone, now, epochStall)
			obs.Tracer.Record(trace.OpCompute, "", trace.OutcomeNone, now+epochStall, epochDur-epochStall)
		} else {
			obs.Tracer.Record(trace.OpCompute, "", trace.OutcomeNone, now, epochDur)
		}
		epochHist.Observe(epochDur)
		for i := 0; i < iters; i++ {
			iterHist.Observe(iter)
			if wait > 0 {
				waitHist.Observe(wait)
			}
			for j := 0; j < batches; j++ {
				fetchHist.Observe(fetchB)
			}
		}
		epochCount.Inc()
		iterCount.Add(int64(iters))
		now += epochDur
		res.EpochDurs = append(res.EpochDurs, epochDur)
		res.WorkersTrace = append(res.WorkersTrace, int(workers))
		res.BatchTrace = append(res.BatchTrace, int(batch))
		ctrl.Tick(base.Add(now))
	}

	res.Wall = now
	res.FinalWorkers, res.FinalBatch = int(workers), int(batch)
	res.FinalEpoch = trailingMedian(res.EpochDurs)
	res.Moves, res.Reverts = ctrl.Moves(), ctrl.Reverts()
	return res
}

// trailingMedian is the median of the last quarter (at least 4) of the
// epoch trace: the sustained converged rate, insensitive to the odd
// settle/measure epoch a late guarded probe spends at a worse value.
func trailingMedian(durs []time.Duration) time.Duration {
	if len(durs) == 0 {
		return 0
	}
	n := len(durs) / 4
	if n < 4 {
		n = 4
	}
	if n > len(durs) {
		n = len(durs)
	}
	tail := append([]time.Duration(nil), durs[len(durs)-n:]...)
	for i := 1; i < len(tail); i++ {
		for j := i; j > 0 && tail[j] < tail[j-1]; j-- {
			tail[j], tail[j-1] = tail[j-1], tail[j]
		}
	}
	return tail[len(tail)/2]
}
