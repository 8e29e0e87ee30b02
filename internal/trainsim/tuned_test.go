package trainsim

import (
	"testing"
	"time"

	"fanstore/internal/cluster"
	"fanstore/internal/metrics"
	"fanstore/internal/obs"
)

// cpuBoundConfig is a decode-dominated profile: heavy per-file codec
// cost, cheap fabric. The right move is growing decode.workers toward
// the core count; the mis-tuned mount starts at 1 worker.
func cpuBoundConfig() (Config, TuneSim) {
	cfg := Config{
		App: cluster.App{
			Name: "cpu-bound", Sync: false, TIter: time.Millisecond,
			CBatch: 32, SBatchMB: 10, IOThreads: 4,
		},
		Clust:             cluster.GTX,
		Nodes:             1,
		Ratio:             1,
		DecompressPerFile: 500 * time.Microsecond,
		RemoteFrac:        0.5,
	}
	ts := TuneSim{
		Cores:         8,
		RTT:           200 * time.Microsecond,
		BurstPerItem:  time.Microsecond,
		DecodeWorkers: 1, // mis-tuned: serial decode on an 8-core box
		BatchItems:    64,
	}
	return cfg, ts
}

// netBoundConfig is a fabric-dominated profile: cheap decode, long
// round trips. The right move is growing batch.items to amortize the
// RTT; the mis-tuned mount starts at 4-item batches.
func netBoundConfig() (Config, TuneSim) {
	cfg := Config{
		App: cluster.App{
			Name: "net-bound", Sync: false, TIter: time.Millisecond,
			CBatch: 32, SBatchMB: 10, IOThreads: 4,
		},
		Clust:             cluster.GTX,
		Nodes:             1,
		Ratio:             1,
		DecompressPerFile: 10 * time.Microsecond,
		RemoteFrac:        1,
	}
	ts := TuneSim{
		Cores:         8,
		RTT:           2 * time.Millisecond,
		BurstPerItem:  20 * time.Microsecond,
		DecodeWorkers: 8,
		BatchItems:    4, // mis-tuned: 8 round trips per iteration
	}
	return cfg, ts
}

const (
	tunedEpochs   = 36
	tunedData     = 640 // 20 iterations per epoch at CBatch 32
	convergeBy    = 16  // epochs allowed to reach the oracle's regime
	convergeSlack = 1.05
)

// runTuned replays the tuned ablation's epochs and returns its scorecard.
func runTuned(cfg Config, ts TuneSim, obs SimObserver) TunedResult {
	rp := cfg.NewReplay(tunedData, Scenario{Tune: &ts}, obs)
	rp.Run(tunedEpochs)
	return rp.Tuned()
}

// checkConverges runs the tuned replay and asserts the acceptance
// criterion: from the mis-tuned start, the sustained epoch time lands
// within 5% of the hand-tuned oracle, and the first crossing happens
// within the convergence budget.
func checkConverges(t *testing.T, cfg Config, ts TuneSim) TunedResult {
	t.Helper()
	res := runTuned(cfg, ts, SimObserver{Metrics: metrics.NewRegistry()})
	limit := time.Duration(float64(res.BestEpoch) * convergeSlack)
	if res.FinalEpoch > limit {
		t.Fatalf("did not converge: final epoch %v, hand-tuned %v (+5%% = %v); trace %v",
			res.FinalEpoch, res.BestEpoch, limit, res.EpochDurs)
	}
	first := -1
	for i, d := range res.EpochDurs {
		if d <= limit {
			first = i
			break
		}
	}
	if first < 0 || first > convergeBy {
		t.Fatalf("first converged epoch %d, want <= %d; trace %v", first, convergeBy, res.EpochDurs)
	}
	if res.Moves == 0 {
		t.Fatalf("converged without any controller move?")
	}
	if res.Reverts > 10 {
		t.Fatalf("%d reverts: the guarded probe is thrashing", res.Reverts)
	}
	if res.Wall >= res.StaticWall {
		t.Fatalf("tuned wall %v not better than static %v", res.Wall, res.StaticWall)
	}
	return res
}

// restingValue is the mode of the trailing third of a knob trace: the
// value the controller rests at between its (rare, escalating-backoff)
// late probes. The raw end-of-run knob can be a probe caught in
// flight, so convergence asserts the resting value.
func restingValue(trace []int) int {
	tail := trace[len(trace)-len(trace)/3:]
	counts := map[int]int{}
	best, bestN := tail[0], 0
	for _, v := range tail {
		counts[v]++
		if counts[v] > bestN {
			best, bestN = v, counts[v]
		}
	}
	return best
}

func TestTunedConvergesCPUBound(t *testing.T) {
	cfg, ts := cpuBoundConfig()
	res := checkConverges(t, cfg, ts)
	if rest := restingValue(res.WorkersTrace); rest < ts.Cores {
		t.Fatalf("decode.workers rests at %d, want >= %d (cores); trace %v",
			rest, ts.Cores, res.WorkersTrace)
	}
	if res.BestWorkers != ts.Cores {
		t.Fatalf("oracle picked %d workers, expected the core count %d", res.BestWorkers, ts.Cores)
	}
}

func TestTunedConvergesNetworkBound(t *testing.T) {
	cfg, ts := netBoundConfig()
	res := checkConverges(t, cfg, ts)
	if rest := restingValue(res.BatchTrace); rest <= ts.BatchItems {
		t.Fatalf("batch.items never grew from the mis-tuned %d (rests at %d); trace %v",
			ts.BatchItems, rest, res.BatchTrace)
	}
}

// TestTunedBalancedHolds: a compute-bound profile whose I/O signals
// never clear the 200µs classification floor must not be touched — no
// moves, no reverts, knobs exactly where they started.
func TestTunedBalancedHolds(t *testing.T) {
	cfg := Config{
		App: cluster.App{
			Name: "balanced", Sync: false, TIter: 5 * time.Millisecond,
			CBatch: 32, SBatchMB: 10, IOThreads: 4,
		},
		Clust:             cluster.GTX,
		Nodes:             1,
		Ratio:             1,
		DecompressPerFile: time.Microsecond,
		RemoteFrac:        0.5,
	}
	ts := TuneSim{
		Cores:         8,
		RTT:           50 * time.Microsecond,
		BurstPerItem:  time.Microsecond,
		DecodeWorkers: 4,
		BatchItems:    32,
	}
	res := runTuned(cfg, ts, SimObserver{Metrics: metrics.NewRegistry()})
	if res.Moves != 0 || res.Reverts != 0 {
		t.Fatalf("balanced profile moved: moves=%d reverts=%d", res.Moves, res.Reverts)
	}
	if res.FinalWorkers != ts.DecodeWorkers || res.FinalBatch != ts.BatchItems {
		t.Fatalf("knobs drifted on a balanced profile: workers=%d batch=%d",
			res.FinalWorkers, res.FinalBatch)
	}
}

// TestTunedEmitsDecisionTrail: the convergence must be visible from
// the outside — tune.* instruments in the registry the report reads,
// and move events in the log.
func TestTunedEmitsDecisionTrail(t *testing.T) {
	cfg, ts := cpuBoundConfig()
	reg := metrics.NewRegistry()
	ev := obs.NewEventLog(0, 64)
	ts.Controller.Events = ev
	res := runTuned(cfg, ts, SimObserver{Metrics: reg})

	snap := reg.Snapshot()
	if got := snap.Counters["tune.moves"]; got != res.Moves {
		t.Fatalf("tune.moves counter %d, result says %d", got, res.Moves)
	}
	if g := snap.Gauges["tune.knob.decode.workers"]; g.Value != int64(res.FinalWorkers) {
		t.Fatalf("knob gauge %d, final workers %d", g.Value, res.FinalWorkers)
	}
	// The knob gauges feed the cluster report's tune: line — both must
	// be present in the snapshot the report merges.
	if _, ok := snap.Gauges["tune.knob.batch.items"]; !ok {
		t.Fatalf("tune.knob.batch.items gauge missing from snapshot")
	}
	var moves, reverts int64
	for _, e := range ev.Events() {
		switch e.Kind {
		case obs.EvTuneMove:
			moves++
		case obs.EvTuneRevert:
			reverts++
		}
	}
	if moves != res.Moves || reverts != res.Reverts {
		t.Fatalf("event log saw %d moves / %d reverts, result says %d / %d",
			moves, reverts, res.Moves, res.Reverts)
	}
}

// BenchmarkTunedEpochs / BenchmarkStaticEpochs is the autotuning
// ablation pair: the same mis-tuned CPU-bound profile with the
// controller in the loop versus frozen knobs. The modeled wall time is
// the metric (lower is better); converged-vs-oracle reports how close
// the controller landed to the grid-swept hand-tuned optimum (1.0 is
// perfect, the acceptance bar is 1.05).
func BenchmarkTunedEpochs(b *testing.B) {
	cfg, ts := cpuBoundConfig()
	var wall, final, best time.Duration
	for i := 0; i < b.N; i++ {
		res := runTuned(cfg, ts, SimObserver{Metrics: metrics.NewRegistry()})
		wall += res.Wall
		final += res.FinalEpoch
		best += res.BestEpoch
	}
	b.ReportMetric(float64(wall.Milliseconds())/float64(b.N), "wall-ms")
	b.ReportMetric(float64(final)/float64(best), "converged-vs-oracle")
}

func BenchmarkStaticEpochs(b *testing.B) {
	cfg, ts := cpuBoundConfig()
	var wall time.Duration
	for i := 0; i < b.N; i++ {
		res := runTuned(cfg, ts, SimObserver{Metrics: metrics.NewRegistry()})
		wall += res.StaticWall
	}
	b.ReportMetric(float64(wall.Milliseconds())/float64(b.N), "wall-ms")
}

// TestTunedSkewStretchesIOOnly: SimObserver.Skew multiplies the I/O term,
// under the tuner as everywhere else. A compute-bound async replay hides
// the skewed I/O entirely; a synchronous one stretches by exactly the
// I/O term at the knobs each epoch ran with.
func TestTunedSkewStretchesIOOnly(t *testing.T) {
	_, ts := cpuBoundConfig()
	const epochs, dataSize = 8, 8192

	async := Config{App: cluster.ResNet50, Clust: cluster.GTX, Nodes: 4, Ratio: 1, RemoteFrac: 0.75}
	run := func(cfg Config, skew float64) TunedResult {
		rp := cfg.NewReplay(dataSize, Scenario{Tune: &ts}, SimObserver{Skew: skew})
		rp.Run(epochs)
		return rp.Tuned()
	}
	healthy, skewed := run(async, 1), run(async, 100)
	if healthy.Wall != skewed.Wall {
		t.Errorf("compute-bound tuned replay: %v at Skew 1, %v at Skew 100 — the skew slowed compute", healthy.Wall, skewed.Wall)
	}
	if want := async.TrainTime(epochs, dataSize); healthy.Wall != want {
		t.Errorf("compute-bound tuned replay ran %v, TrainTime says %v", healthy.Wall, want)
	}

	sync := Config{
		App: cluster.SRGANonGTX, Clust: cluster.GTX, Nodes: 4,
		Ratio: 2, DecompressPerFile: 300 * time.Microsecond, RemoteFrac: 0.75,
	}
	const skew = 3
	res := run(sync, skew)
	tuned := ts
	tuned.defaults()
	iters := NumIters(1, dataSize, sync.App.CBatch*sync.Nodes)
	for e, got := range res.EpochDurs {
		io, _, _, _ := tuned.model(sync, res.WorkersTrace[e], res.BatchTrace[e])
		want := time.Duration(iters) * (sync.ComputeTime() + time.Duration(float64(io)*skew))
		if got != want {
			t.Errorf("epoch %d (workers=%d batch=%d): %v, want compute + %dx I/O = %v",
				e, res.WorkersTrace[e], res.BatchTrace[e], got, skew, want)
		}
	}
}
