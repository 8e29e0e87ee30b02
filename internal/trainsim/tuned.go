package trainsim

// The autotuning ablation: the replay's analytic iteration model with
// the decode-worker and fetch-batch knobs live — each simulated epoch
// emits the registry signals the real store would (decode queue wait,
// per-batch fetch latency, iteration throughput) and then hands the
// clock to a tune.Controller, whose knob moves reshape the next epoch. Against it the harness prices the same run
// with the knobs frozen (static) and with the best values a power-of-2
// grid sweep finds (hand-tuned), which is the paper-style question the
// ablation answers: how close does online tuning get to oracle knobs,
// starting from a mis-tune, and how fast.

import (
	"math"
	"time"

	"fanstore/internal/metrics"
	"fanstore/internal/tune"
)

// TuneSim parameterizes Scenario.Tune's knob-sensitive terms.
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

// model returns the knob-dependent per-iteration terms: the I/O term
// that replaces Config.IOTime, the decode-queue wait one file observes,
// the round-trip one batched fetch observes, and the batch count.
func (ts TuneSim) model(c Config, workers, batch int) (io, decodeWait, fetchBatch time.Duration, batches int) {
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
	return decode + fetch, decodeWait, fetchBatch, batches
}

// TunedResult is the autotuning ablation's scorecard.
type TunedResult struct {
	// Wall is the tuned run's simulated wall time; StaticWall freezes
	// the knobs at their starting values; BestWall runs the grid-swept
	// hand-tuned knobs from epoch 0 — the same Scenario and skew all three.
	Wall, StaticWall, BestWall time.Duration
	// FinalEpoch is the sustained per-epoch time at the end of the
	// tuned run — the median of the trailing quarter of EpochDurs, so
	// one late guarded probe cannot misreport convergence; BestEpoch
	// is the last epoch's time at the hand-tuned values. FinalEpoch <=
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

// tuner is a Replay's Scenario.Tune part: each epoch runs at the current
// knob values and emits the live store's signal instruments —
// "decomp.queue.wait.latency" per file wait, "fanstore.fetch.latency"
// per batch round trip — then the controller ticks at the simulated
// clock and kept moves reshape the next epoch. Its objective is iteration
// throughput ("trainsim.iters" rate, tie-broken by "trainsim.iter.latency"
// p99). Every epoch is also priced at the frozen starting knobs and at the
// hand-tuned oracle, so one replay yields the whole ablation.
type tuner struct {
	ts   TuneSim
	ctrl *tune.Controller
	// The live knobs: plain fields closed over by the knob callbacks —
	// the replay and the controller tick on one goroutine.
	workers, batch      int64
	waitHist, fetchHist *metrics.Histogram
	res                 TunedResult
}

func newTuner(ts TuneSim, reg *metrics.Registry) *tuner {
	ts.defaults()
	t := &tuner{
		ts: ts, workers: int64(ts.DecodeWorkers), batch: int64(ts.BatchItems),
		waitHist:  reg.Histogram("decomp.queue.wait.latency"),
		fetchHist: reg.Histogram("fanstore.fetch.latency"),
	}
	opts := ts.Controller
	opts.Registry = reg
	opts.Knobs = []tune.Knob{
		tune.StepKnob("decode.workers", 1, 64,
			func() int64 { return t.workers },
			func(v int64) { t.workers = v }),
		tune.StepKnob("batch.items", 4, 1024,
			func() int64 { return t.batch },
			func(v int64) { t.batch = v }),
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
	t.ctrl = tune.New(opts)
	t.ctrl.Tick(time.Unix(0, 0)) // simulated time zero: prime the sampler baseline
	return t
}

// epoch returns the I/O term of one iteration at the current knobs,
// having emitted the epoch's signals and booked it — at the current, the
// starting and the oracle's knobs — with the engine's epochAt.
func (t *tuner) epoch(cfg Config, iters int, epochAt func(io time.Duration) (iter, fill, dur time.Duration)) time.Duration {
	io, wait, fetchBatch, batches := t.ts.model(cfg, int(t.workers), int(t.batch))
	for i := 0; i < iters; i++ {
		if wait > 0 {
			t.waitHist.Observe(wait)
		}
		for j := 0; j < batches; j++ {
			t.fetchHist.Observe(fetchBatch)
		}
	}
	epochWith := func(workers, batch int) time.Duration {
		io, _, _, _ := t.ts.model(cfg, workers, batch)
		_, _, dur := epochAt(io)
		return dur
	}
	res := &t.res
	res.EpochDurs = append(res.EpochDurs, epochWith(int(t.workers), int(t.batch)))
	res.WorkersTrace = append(res.WorkersTrace, int(t.workers))
	res.BatchTrace = append(res.BatchTrace, int(t.batch))
	res.StaticWall += epochWith(t.ts.DecodeWorkers, t.ts.BatchItems)
	// The hand-tuned oracle: sweep both knobs over their power-of-2
	// grids and keep the fastest epoch.
	res.BestEpoch = 0
	for w := 1; w <= 64; w *= 2 {
		for b := 4; b <= 1024; b *= 2 {
			if d := epochWith(w, b); res.BestEpoch == 0 || d < res.BestEpoch {
				res.BestEpoch = d
				res.BestWorkers, res.BestBatch = w, b
			}
		}
	}
	res.BestWall += res.BestEpoch
	return io
}

// Tuned returns the scorecard of the epochs replayed so far (the zero
// TunedResult without Scenario.Tune).
func (r *Replay) Tuned() TunedResult {
	if r.tuner == nil {
		return TunedResult{}
	}
	res := r.tuner.res
	res.Wall = r.now
	res.FinalWorkers, res.FinalBatch = int(r.tuner.workers), int(r.tuner.batch)
	res.FinalEpoch = trailingMedian(res.EpochDurs)
	res.Moves, res.Reverts = r.tuner.ctrl.Moves(), r.tuner.ctrl.Reverts()
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
