package trainsim

import (
	"time"

	"fanstore/internal/fanstore"
	"fanstore/internal/metrics"
	"fanstore/internal/obs"
)

// MonitoredConfig parameterizes RunMonitored: the live health monitor
// folding the per-rank registries after every epoch — the simulation of
// "the operator notices the slow rank while the job is still running"
// instead of in the post-run report.
type MonitoredConfig struct {
	// SkewRank is the rank whose first flagging FlaggedEpoch reports: the
	// one replayed with a Skew well past the 2x-median threshold.
	SkewRank int
	// Events receives the monitor's straggler/health events. When nil
	// a private log is created so the result can still report them.
	Events *obs.EventLog
	// Health is the registry receiving the monitor's health.*
	// instruments (rank 0's registry in the live layout). Optional.
	Health *metrics.Registry
	// Pace, when positive, sleeps this long of real wall-clock time
	// per simulated epoch, so a human (or a test) can curl the ops
	// endpoints mid-run. Zero replays as fast as the CPU allows.
	Pace time.Duration
}

// MonitoredResult is what RunMonitored learned.
type MonitoredResult struct {
	// FlaggedEpoch is the 0-based epoch after which the monitor first
	// flagged SkewRank (-1: never). Acceptance for the scenario is
	// FlaggedEpoch < Epochs-1 strictly less than the run's end — i.e.
	// the straggler was caught mid-run.
	FlaggedEpoch int
	// Flagged is the monitor's final verdict.
	Flagged []int
	// Events is the log the monitor emitted into (MonitoredConfig's,
	// or the private one).
	Events *obs.EventLog
	// Polls counts the monitor rounds that ran (one per epoch).
	Polls int64
	// Report is the end-of-run cluster report over the same
	// registries, for the live-vs-post-mortem comparison.
	Report fanstore.ClusterReport
	// Wall is the slowest rank's simulated wall time.
	Wall time.Duration
}

// RunMonitored drives one Replay per rank in epoch lockstep and polls
// an obs.Monitor over their registries (every replay needs one) after
// every epoch — the same detector (fanstore.FlagStragglers over
// trainsim.epoch.latency) the end-of-run cluster report uses, so live
// flagging and the post-run report can never disagree. The straggler
// event is logged the moment the detector first fires, which for any skew
// well past the threshold is after epoch 0 — long before the run ends.
func RunMonitored(replays []*Replay, epochs int, mc MonitoredConfig) MonitoredResult {
	events := mc.Events
	if events == nil {
		events = obs.NewEventLog(0, 0)
	}
	regs := make([]*metrics.Registry, len(replays))
	for i, rp := range replays {
		regs[i] = rp.obs.Metrics
	}
	stragglers := fanstore.ReportOptions{StragglerMetric: "trainsim.epoch.latency"}
	collect := obs.CollectRegistries(regs)
	mon := obs.NewMonitor(obs.MonitorOptions{
		Collect: collect,
		Flag:    fanstore.FlagStragglers(stragglers),
		Metrics: mc.Health,
		Events:  events,
	})

	res := MonitoredResult{FlaggedEpoch: -1, Events: events}
	for e := 0; e < epochs; e++ {
		for _, rp := range replays {
			rp.Epoch()
		}
		flagged, _ := mon.Poll()
		if res.FlaggedEpoch < 0 {
			for _, r := range flagged {
				if r == mc.SkewRank {
					res.FlaggedEpoch = e
					break
				}
			}
		}
		if mc.Pace > 0 {
			time.Sleep(mc.Pace)
		}
	}

	res.Flagged = mon.Flagged()
	res.Polls = mon.Polls()
	snaps, _ := collect() // in-process registries: no scrape to fail
	res.Report = fanstore.BuildClusterReport(snaps, stragglers)
	for _, rp := range replays {
		if w := rp.Now(); w > res.Wall {
			res.Wall = w
		}
	}
	return res
}
