package trainsim

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"fanstore/internal/cluster"
	"fanstore/internal/metrics"
	"fanstore/internal/trace"
)

func simConfig() Config {
	return Config{
		App: cluster.App{
			Name: "toy", Sync: false, TIter: 100 * time.Millisecond,
			CBatch: 100, SBatchMB: 10, IOThreads: 4,
		},
		Clust: cluster.GTX,
		Nodes: 4,
		Ratio: 1,
	}
}

func TestTraceEpochsMatchesTrainTime(t *testing.T) {
	cfg := simConfig()
	const epochs, dataSize = 3, 4000
	reg := metrics.NewRegistry()
	tr := trace.NewSynthetic(0, 1<<10)
	total := cfg.NewReplay(dataSize, Scenario{}, SimObserver{Tracer: tr, Metrics: reg}).Run(epochs)
	if want := cfg.TrainTime(epochs, dataSize); total != want {
		t.Fatalf("simulated %v, TrainTime says %v", total, want)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["trainsim.epochs"]; got != epochs {
		t.Fatalf("epochs counter = %d, want %d", got, epochs)
	}
	iters := NumIters(1, dataSize, cfg.App.CBatch*cfg.Nodes)
	if got := snap.Counters["trainsim.iters"]; got != int64(epochs*iters) {
		t.Fatalf("iters counter = %d, want %d", got, epochs*iters)
	}
	if snap.Histograms["trainsim.epoch.latency"].Count != epochs {
		t.Fatalf("epoch histogram: %+v", snap.Histograms["trainsim.epoch.latency"])
	}
	// Per epoch: one epoch span plus the wait/compute split.
	var epochSpans, waitDur, computeDur time.Duration
	nEpoch := 0
	for _, s := range tr.Spans() {
		switch s.Op {
		case trace.OpEpoch:
			nEpoch++
			epochSpans += s.Dur
		case trace.OpWait:
			waitDur += s.Dur
		case trace.OpCompute:
			computeDur += s.Dur
		}
	}
	if nEpoch != epochs || epochSpans != total {
		t.Fatalf("epoch spans %d/%v, want %d/%v", nEpoch, epochSpans, epochs, total)
	}
	if waitDur+computeDur != total {
		t.Fatalf("wait %v + compute %v != total %v", waitDur, computeDur, total)
	}
	// Nil sinks must be safe and free.
	if got := cfg.NewReplay(dataSize, Scenario{}, SimObserver{}).Run(epochs); got != total {
		t.Fatalf("nil-sink run returned %v, want %v", got, total)
	}
}

func TestTraceEpochsSkewSlowsRank(t *testing.T) {
	cfg := simConfig()
	healthy := metrics.NewRegistry()
	slowed := metrics.NewRegistry()
	cfg.NewReplay(4000, Scenario{}, SimObserver{Metrics: healthy}).Run(2)
	// The skew must push the skewed rank's I/O well past the compute
	// term (the pipeline hides anything smaller) and across a
	// power-of-two histogram bucket; derive it from the config rather
	// than guessing.
	skew := 4 * float64(cfg.ComputeTime()) / float64(cfg.IOTime())
	cfg.NewReplay(4000, Scenario{}, SimObserver{Metrics: slowed, Skew: skew}).Run(2)
	h := healthy.Snapshot().Histograms["trainsim.epoch.latency"].P99
	s := slowed.Snapshot().Histograms["trainsim.epoch.latency"].P99
	if s <= h {
		t.Fatalf("skewed p99 %v not above healthy %v", s, h)
	}
}

// chromeEvent mirrors the Chrome trace-event fields the export must emit.
type chromeEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
}

// TestSimulatedClusterChromeExport is the acceptance test for the -trace
// flag's file format: a 4-rank simulated run (one rank skewed) exports
// Chrome trace-event JSON that parses, uses complete events with the
// required fields, is sorted by timestamp, and carries one tid per rank.
func TestSimulatedClusterChromeExport(t *testing.T) {
	cfg := simConfig()
	tracers := make([]*trace.Tracer, 4)
	for rank := range tracers {
		tracers[rank] = trace.NewSynthetic(rank, 1<<10)
		obs := SimObserver{Tracer: tracers[rank]}
		if rank == 3 {
			obs.Skew = 4
		}
		cfg.NewReplay(4000, Scenario{Rank: rank}, obs).Run(2)
	}
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, tracers...); err != nil {
		t.Fatal(err)
	}
	var evs []chromeEvent
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(evs) == 0 {
		t.Fatal("empty trace")
	}
	ranks := map[int]bool{}
	lastTs := -1.0
	for i, e := range evs {
		if e.Ph != "X" {
			t.Fatalf("event %d: ph=%q, want X", i, e.Ph)
		}
		if e.Name == "" || e.Cat == "" {
			t.Fatalf("event %d missing name/cat: %+v", i, e)
		}
		if e.Ts < lastTs {
			t.Fatalf("event %d: ts %v < previous %v (not sorted)", i, e.Ts, lastTs)
		}
		lastTs = e.Ts
		ranks[e.Tid] = true
	}
	for rank := 0; rank < 4; rank++ {
		if !ranks[rank] {
			t.Fatalf("no events for rank %d (tids: %v)", rank, ranks)
		}
	}
}

func TestTraceEpochsJoinGrowsCluster(t *testing.T) {
	cfg := simConfig()
	cfg.RemoteFrac = float64(cfg.Nodes-1) / float64(cfg.Nodes)
	const epochs, dataSize = 4, 4000
	reg := metrics.NewRegistry()
	tr := trace.NewSynthetic(0, 1<<10)
	total := cfg.NewReplay(dataSize, Scenario{Join: &JoinConfig{JoinEpoch: 1}},
		SimObserver{Tracer: tr, Metrics: reg}).Run(epochs)

	// The join epoch and everything before run on the old membership;
	// afterwards the per-node share shrinks, so the grown epochs are no
	// slower than the old ones and the run beats the static schedule
	// whenever the rebalance transfer hides behind the join epoch.
	grown := cfg
	grown.Nodes = cfg.Nodes + 1
	grown.RemoteFrac = float64(grown.Nodes-1) / float64(grown.Nodes)
	oldEpoch := cfg.TrainTime(1, dataSize)
	grownEpoch := grown.TrainTime(1, dataSize)
	if grownEpoch > oldEpoch {
		t.Fatalf("grown epoch %v slower than old %v", grownEpoch, oldEpoch)
	}
	if total < 2*oldEpoch+2*grownEpoch {
		t.Fatalf("total %v below the floor of 2 old + 2 grown epochs (%v)", total, 2*oldEpoch+2*grownEpoch)
	}

	snap := reg.Snapshot()
	if got := snap.Counters["trainsim.epochs"]; got != epochs {
		t.Fatalf("epochs counter = %d, want %d", got, epochs)
	}
	if snap.Counters["rebalance.bytes.moved"] <= 0 {
		t.Fatalf("no rebalance bytes recorded: %v", snap.Counters)
	}
	if v := snap.Gauges["member.map.version"].Value; v != 2 {
		t.Fatalf("map version gauge = %d, want 2 (post-commit)", v)
	}
	if snap.Histograms["trainsim.rebalance.latency"].Count != 1 {
		t.Fatalf("rebalance latency histogram: %+v", snap.Histograms["trainsim.rebalance.latency"])
	}

	// The rebalance transfer shows up as a labelled fetch span, and the
	// cluster report renders the rebalance line from the same snapshot.
	foundTransfer := false
	for _, s := range tr.Spans() {
		if s.Op == trace.OpFetch && tr.PathName(s.PathID) == "rebalance" {
			foundTransfer = true
		}
	}
	if !foundTransfer {
		t.Fatal("no rebalance transfer span in the trace")
	}
}

func TestTraceEpochsChaosKillsRank(t *testing.T) {
	cfg := simConfig()
	cfg.RemoteFrac = float64(cfg.Nodes-1) / float64(cfg.Nodes)
	const epochs, dataSize = 4, 4000
	cc := ChaosConfig{KillRank: 3, KillEpoch: 1, K: 4, M: 2}

	reg := metrics.NewRegistry()
	tr := trace.NewSynthetic(0, 1<<10)
	total := cfg.NewReplay(dataSize, Scenario{Rank: 0, Kill: &cc},
		SimObserver{Tracer: tr, Metrics: reg}).Run(epochs)

	// One healthy epoch, a degraded kill epoch (at least as slow as a
	// healthy one — reconstruction only adds I/O), then the tail on
	// Nodes-1 members, each at least as slow as the old per-epoch time
	// (the survivors carry a larger share).
	shrunk := cfg
	shrunk.Nodes = cfg.Nodes - 1
	shrunk.RemoteFrac = float64(shrunk.Nodes-1) / float64(shrunk.Nodes)
	oldEpoch := cfg.TrainTime(1, dataSize)
	shrunkEpoch := shrunk.TrainTime(1, dataSize)
	if shrunkEpoch < oldEpoch {
		t.Fatalf("shrunk epoch %v faster than full-cluster epoch %v", shrunkEpoch, oldEpoch)
	}
	if total < 2*oldEpoch+2*shrunkEpoch {
		t.Fatalf("total %v below the floor of 1 old + 1 degraded + 2 shrunk epochs (%v)",
			total, 2*oldEpoch+2*shrunkEpoch)
	}

	snap := reg.Snapshot()
	if got := snap.Counters["trainsim.epochs"]; got != epochs {
		t.Fatalf("epochs counter = %d, want %d", got, epochs)
	}
	if snap.Counters["ec.degraded.reads"] <= 0 {
		t.Fatalf("no degraded reads recorded: %v", snap.Counters)
	}
	if snap.Counters["ec.repair.bytes"] <= 0 {
		t.Fatalf("no repair bytes recorded: %v", snap.Counters)
	}
	if snap.Counters["rebalance.bytes.moved"] <= 0 {
		t.Fatalf("no rebalance bytes recorded: %v", snap.Counters)
	}
	if snap.Histograms["ec.reconstruct.latency"].Count != snap.Counters["ec.degraded.reads"] {
		t.Fatalf("reconstruct observations %d != degraded reads %d",
			snap.Histograms["ec.reconstruct.latency"].Count, snap.Counters["ec.degraded.reads"])
	}
	// Two commits: the dead-mark and the repair completion.
	if v := snap.Gauges["member.map.version"].Value; v != 3 {
		t.Fatalf("map version gauge = %d, want 3 (dead-mark + repair)", v)
	}
	if v := snap.Gauges["rebalance.partitions.pending"].Value; v != 0 {
		t.Fatalf("pending gauge = %d after repair, want 0", v)
	}

	var foundRepair, foundDegraded bool
	for _, s := range tr.Spans() {
		if s.Op == trace.OpFetch && tr.PathName(s.PathID) == "repair" {
			foundRepair = true
		}
		if s.Op == trace.OpFetch && s.Outcome == trace.OutcomeDegraded {
			foundDegraded = true
		}
	}
	if !foundRepair {
		t.Fatal("no repair transfer span in the trace")
	}
	if !foundDegraded {
		t.Fatal("no degraded fetch span in the trace")
	}

	// The victim's replay stops at the kill epoch.
	victim := cfg.NewReplay(dataSize, Scenario{Rank: cc.KillRank, Kill: &cc}, SimObserver{}).Run(epochs)
	if victim >= total {
		t.Fatalf("victim timeline %v not shorter than survivor %v", victim, total)
	}
	if want := cfg.TrainTime(cc.KillEpoch, dataSize); victim != want {
		t.Fatalf("victim ran %v, want %v (its pre-kill epochs)", victim, want)
	}

	// A kill epoch the run never reaches degenerates to the plain replay.
	never := ChaosConfig{KillRank: 3, KillEpoch: epochs}
	plain := cfg.NewReplay(dataSize, Scenario{Kill: &never}, SimObserver{}).Run(epochs)
	if want := cfg.NewReplay(dataSize, Scenario{}, SimObserver{}).Run(epochs); plain != want {
		t.Fatalf("disabled chaos ran %v, want %v", plain, want)
	}
}

// TestComposedScenario runs what no single fork could: on 4 ranks, rank
// 3 dies at epoch 1 with the plan's cold fill priced — one Replay per
// rank, every part's instruments in one registry.
func TestComposedScenario(t *testing.T) {
	cfg := Config{
		App: cluster.SRGANonGTX, Clust: cluster.GTX, Nodes: 4,
		Ratio: 2, DecompressPerFile: 2 * time.Millisecond, RemoteFrac: 0.75,
	}
	const epochs, dataSize, victim = 4, 4000, 3
	scenario := func(rank int) Scenario {
		return Scenario{
			Rank: rank,
			Plan: &PlanConfig{},
			Kill: &ChaosConfig{KillRank: victim, KillEpoch: 1},
		}
	}
	oneEpoch := cfg.NewReplay(dataSize, Scenario{}, SimObserver{}).Run(1)

	for rank := 0; rank < 4; rank++ {
		sc := scenario(rank)
		reg := metrics.NewRegistry()
		tr := trace.NewSynthetic(rank, 1<<10)
		rp := cfg.NewReplay(dataSize, sc, SimObserver{Tracer: tr, Metrics: reg})
		wall := rp.Run(epochs)
		snap := reg.Snapshot()
		var end time.Duration
		for _, s := range tr.Spans() {
			if s.Start+s.Dur > end {
				end = s.Start + s.Dur
			}
		}
		if end != wall {
			t.Errorf("rank %d: timeline ends at %v, replay at %v", rank, end, wall)
		}
		if rank == victim {
			// The victim's timeline ends at the crash: one epoch, no fault
			// instruments, and further stepping replays nothing.
			if snap.Counters["trainsim.epochs"] != 1 || rp.Epoch() {
				t.Errorf("victim replayed %d epochs, want 1", snap.Counters["trainsim.epochs"])
			}
			if _, ok := snap.Counters["ec.degraded.reads"]; ok {
				t.Errorf("victim recorded its own degraded reads")
			}
			continue
		}
		if got := snap.Counters["trainsim.epochs"]; got != epochs {
			t.Errorf("rank %d: %d epochs, want %d", rank, got, epochs)
		}
		for _, name := range []string{
			"trainsim.iters", "trainsim.plan.staged.bytes", // engine, Plan
			"ec.degraded.reads", "ec.repair.bytes", "rebalance.bytes.moved", // Kill
		} {
			if snap.Counters[name] <= 0 {
				t.Errorf("rank %d: counter %s = %d, want > 0", rank, name, snap.Counters[name])
			}
		}
		for name, want := range map[string]int64{
			"trainsim.epoch.latency": epochs, "trainsim.fill.latency": epochs,
			"trainsim.rebalance.latency": 1,
			"ec.reconstruct.latency":     snap.Counters["ec.degraded.reads"],
		} {
			if got := snap.Histograms[name].Count; got != want {
				t.Errorf("rank %d: histogram %s has %d observations, want %d", rank, name, got, want)
			}
		}
		if v := snap.Gauges["member.map.version"].Value; v != 3 {
			t.Errorf("rank %d: map version %d, want 3 (dead-mark + repair)", rank, v)
		}
		if g := snap.Gauges["rebalance.partitions.pending"]; g.Value != 0 || g.Max != 1 {
			t.Errorf("rank %d: pending gauge %+v, want 0 after a peak of 1", rank, g)
		}
	}

	// Losing a rank never shortens a survivor's run, and the victim ran
	// exactly its one pre-crash epoch.
	killed := cfg.NewReplay(dataSize, scenario(0), SimObserver{}).Run(epochs)
	healthy := scenario(0)
	healthy.Kill = nil
	if whole := cfg.NewReplay(dataSize, healthy, SimObserver{}).Run(epochs); killed < whole {
		t.Errorf("survivor ran %v with the kill, %v without", killed, whole)
	}
	if got := cfg.NewReplay(dataSize, scenario(victim), SimObserver{}).Run(epochs); got != oneEpoch {
		t.Errorf("victim ran %v, want its one epoch %v", got, oneEpoch)
	}

	// One map-version counter: a join and a kill in one run commit three
	// times past the static map's version 1.
	reg := metrics.NewRegistry()
	both := Scenario{Join: &JoinConfig{JoinEpoch: 0}, Kill: &ChaosConfig{KillRank: victim, KillEpoch: 2}}
	cfg.NewReplay(dataSize, both, SimObserver{Metrics: reg}).Run(epochs)
	if v := reg.Snapshot().Gauges["member.map.version"].Value; v != 4 {
		t.Errorf("join + kill left map version %d, want 4", v)
	}
}
