package trainsim

import (
	"testing"

	"fanstore/internal/metrics"
	"fanstore/internal/obs"
)

// monitoredRanks builds one plain replay per rank over dataSize files,
// skewRank's I/O multiplied by skew.
func monitoredRanks(cfg Config, dataSize, ranks, skewRank int, skew float64) []*Replay {
	replays := make([]*Replay, ranks)
	for r := range replays {
		sink := SimObserver{Metrics: metrics.NewRegistry()}
		if r == skewRank {
			sink.Skew = skew
		}
		replays[r] = cfg.NewReplay(dataSize, Scenario{Rank: r}, sink)
	}
	return replays
}

// TestRunMonitoredFlagsStragglerMidRun is the live-ops acceptance
// scenario: a skew-injected rank must be flagged by the continuous
// health monitor strictly before the run's final epoch, with the
// straggler event already in the log, and the end-of-run report must
// agree with the live verdict.
func TestRunMonitoredFlagsStragglerMidRun(t *testing.T) {
	cfg := simConfig()
	const epochs = 6
	ev := obs.NewEventLog(0, 64)
	health := metrics.NewRegistry()
	// Push the skewed rank's I/O well past the compute term (the async
	// pipeline hides anything smaller) — same derivation as
	// TestTraceEpochsSkewSlowsRank.
	skew := 4 * float64(cfg.ComputeTime()) / float64(cfg.IOTime())
	res := RunMonitored(monitoredRanks(cfg, 4000, 4, 2, skew), epochs, MonitoredConfig{
		SkewRank: 2,
		Events:   ev,
		Health:   health,
	})

	if res.FlaggedEpoch < 0 {
		t.Fatal("monitor never flagged the skewed rank")
	}
	if res.FlaggedEpoch >= epochs-1 {
		t.Errorf("FlaggedEpoch = %d, want < %d (caught mid-run, not at the end)", res.FlaggedEpoch, epochs-1)
	}
	if len(res.Flagged) != 1 || res.Flagged[0] != 2 {
		t.Errorf("final Flagged = %v, want [2]", res.Flagged)
	}
	if res.Polls != epochs {
		t.Errorf("Polls = %d, want one per epoch (%d)", res.Polls, epochs)
	}

	// The straggler event must already be in the log, naming the rank.
	found := false
	for _, e := range ev.Events() {
		if e.Kind == obs.EvStraggler && e.Sev == obs.SevWarn {
			found = true
		}
	}
	if !found {
		t.Error("no straggler warn event in the log")
	}
	if res.Events != ev {
		t.Error("result does not carry the caller's event log")
	}

	// Live and post-mortem verdicts use the same detector: the
	// end-of-run cluster report must flag the same rank.
	reportFlagged := false
	for _, r := range res.Report.Stragglers {
		if r == 2 {
			reportFlagged = true
		}
	}
	if !reportFlagged {
		t.Errorf("end-of-run report stragglers = %v, want rank 2 included", res.Report.Stragglers)
	}

	// The monitor's health.* instruments landed in the health registry.
	hs := health.Snapshot()
	if hs.Counters["health.polls"] != epochs {
		t.Errorf("health.polls = %d, want %d", hs.Counters["health.polls"], epochs)
	}
	if hs.Gauges["health.members"].Value != 4 {
		t.Errorf("health.members = %d, want 4", hs.Gauges["health.members"].Value)
	}
}

// TestRunMonitoredDefaults exercises the zero-value config path: a
// private event log is created, the monitor polls once per epoch, and
// the replay completes.
func TestRunMonitoredDefaults(t *testing.T) {
	cfg := simConfig()
	const epochs = 4
	res := RunMonitored(monitoredRanks(cfg, 4000, 4, 1, 4), epochs, MonitoredConfig{})
	if res.Events == nil {
		t.Fatal("no private event log created")
	}
	if res.Polls != epochs {
		t.Errorf("Polls = %d, want %d", res.Polls, epochs)
	}
	if res.Wall <= 0 {
		t.Error("Wall not populated")
	}
	if len(res.Report.PerRank) != 4 {
		t.Errorf("report ranks = %d, want default 4", len(res.Report.PerRank))
	}
}
