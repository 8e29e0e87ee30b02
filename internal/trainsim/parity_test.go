package trainsim

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"fanstore/internal/cluster"
	"fanstore/internal/metrics"
	"fanstore/internal/trace"
)

// The parity table (testdata/replay_parity.json) was captured at the
// parent of the commit that folded TraceEpochs, TraceEpochsJoin,
// TraceEpochsReplay, TraceEpochsChaos, TraceEpochsFidelity and
// RunMonitored into Replay: every scenario below x three configs x Skew
// {1, 3, 100}, each row the fork's literal wall time
// (with sinks and with nil sinks), span multiset and registry text, plus
// one RunMonitored. The engine must reproduce every row exactly, so any
// drift in the model fails here, which inequality asserts do not catch.
// One family may differ, and only as named: the join engine also emits
// the "rebalance.partitions.pending" 1 -> 0 that the live join and the
// simulated repair already did; that one gauge line is dropped before
// comparing.
//
// The reactive window's nine rows went with the mode, the tuned replay's
// eighteen with the autotuner, and the fidelity warm-up's nine with
// layered fidelity.

type parityCase struct {
	Scenario string   `json:"scenario"`
	Config   string   `json:"config"`
	Skew     float64  `json:"skew"`
	WallNS   int64    `json:"wall_ns"`
	NilNS    int64    `json:"wall_nil_sinks_ns"`
	Spans    []string `json:"spans"`
	Registry []string `json:"registry"`
}

type parityTable struct {
	Parent    string       `json:"parent"`
	Epochs    int          `json:"epochs"`
	DataSize  int          `json:"data_size"`
	Cases     []parityCase `json:"cases"`
	Monitored struct {
		WallNS       int64      `json:"wall_ns"`
		FlaggedEpoch int        `json:"flagged_epoch"`
		Flagged      []int      `json:"flagged"`
		Polls        int64      `json:"polls"`
		Report       []string   `json:"report"`
		Registries   [][]string `json:"registries"`
	} `json:"monitored"`
}

func parityConfig(name string) Config {
	c := Config{Nodes: 4, Ratio: 2, DecompressPerFile: 300 * time.Microsecond, RemoteFrac: 0.75}
	switch name {
	case "srgan-gtx":
		c.App, c.Clust = cluster.SRGANonGTX, cluster.GTX
	case "frnn-cpu":
		c.App, c.Clust = cluster.FRNNonCPU, cluster.CPU
	case "resnet-gtx":
		c.App, c.Clust = cluster.ResNet50, cluster.GTX
	default:
		panic("parity table names an unknown config: " + name)
	}
	return c
}

// parityScenario maps a captured scenario name to the Scenario that
// stands for the fork's arguments.
func parityScenario(name string) Scenario {
	switch name {
	case "plain":
		return Scenario{}
	case "join":
		return Scenario{Join: &JoinConfig{JoinEpoch: 1}}
	case "join-flood": // a stream that outlives its epoch
		return Scenario{Join: &JoinConfig{JoinEpoch: 0, MovedFrac: 200}}
	case "planned":
		return Scenario{Plan: &PlanConfig{}}
	case "planned-admission":
		return Scenario{Plan: &PlanConfig{AdmissionBytes: 64 << 20}}
	case "kill-survivor":
		return Scenario{Rank: 0, Kill: &ChaosConfig{KillRank: 3, KillEpoch: 1, K: 6, M: 2}}
	case "kill-victim":
		return Scenario{Rank: 3, Kill: &ChaosConfig{KillRank: 3, KillEpoch: 1, K: 6, M: 2}}
	case "kill-at-0": // default geometry
		return Scenario{Rank: 1, Kill: &ChaosConfig{KillRank: 0, KillEpoch: 0}}
	}
	panic("parity table names an unknown scenario: " + name)
}

func spanLines(tr *trace.Tracer) []string {
	counts := map[string]int{}
	for _, s := range tr.Spans() {
		counts[fmt.Sprintf("%s %q %s start=%d dur=%d", s.Op, tr.PathName(s.PathID), s.Outcome, int64(s.Start), int64(s.Dur))]++
	}
	out := make([]string, 0, len(counts))
	for k, n := range counts {
		out = append(out, fmt.Sprintf("%s x%d", k, n))
	}
	sort.Strings(out)
	return out
}

func textLines(s string) []string {
	return strings.Split(strings.TrimRight(s, "\n"), "\n")
}

func loadParity(t *testing.T) parityTable {
	t.Helper()
	raw, err := os.ReadFile("testdata/replay_parity.json")
	if err != nil {
		t.Fatal(err)
	}
	var tab parityTable
	if err := json.Unmarshal(raw, &tab); err != nil {
		t.Fatal(err)
	}
	if len(tab.Cases) != 72 {
		t.Fatalf("parity table has %d rows, want 72 (8 scenarios x 3 configs x 3 skews)", len(tab.Cases))
	}
	return tab
}

func TestReplayParityWithForks(t *testing.T) {
	tab := loadParity(t)
	for _, pc := range tab.Cases {
		pc := pc
		t.Run(fmt.Sprintf("%s/%s/skew%v", pc.Scenario, pc.Config, pc.Skew), func(t *testing.T) {
			sc, cfg := parityScenario(pc.Scenario), parityConfig(pc.Config)
			reg := metrics.NewRegistry()
			tr := trace.NewSynthetic(0, 0)
			rp := cfg.NewReplay(tab.DataSize, sc, SimObserver{Tracer: tr, Metrics: reg, Skew: pc.Skew})
			if wall := rp.Run(tab.Epochs); int64(wall) != pc.WallNS {
				t.Errorf("wall %d ns, fork replayed %d ns", int64(wall), pc.WallNS)
			}
			if wall := cfg.NewReplay(tab.DataSize, sc, SimObserver{Skew: pc.Skew}).Run(tab.Epochs); int64(wall) != pc.NilNS {
				t.Errorf("nil-sink wall %d ns, fork replayed %d ns", int64(wall), pc.NilNS)
			}
			if got := spanLines(tr); !reflect.DeepEqual(got, pc.Spans) {
				t.Errorf("spans\n got %s\nwant %s", strings.Join(got, "\n     "), strings.Join(pc.Spans, "\n     "))
			}
			got := textLines(reg.Snapshot().Text())
			if sc.Join != nil {
				// The exemption: the join's pending gauge is new.
				kept := got[:0]
				for _, line := range got {
					if line != "gauge rebalance.partitions.pending 0 max 1" {
						kept = append(kept, line)
					}
				}
				if len(kept) != len(got)-1 {
					t.Errorf("join did not settle rebalance.partitions.pending at 0 (max 1):\n%s", strings.Join(got, "\n"))
				}
				got = kept
			}
			if !reflect.DeepEqual(got, pc.Registry) {
				t.Errorf("registry\n got %s\nwant %s", strings.Join(got, "\n     "), strings.Join(pc.Registry, "\n     "))
			}
		})
	}
}

// TestRunMonitoredParity replays the captured RunMonitored — 4 ranks of
// ResNet-50/GTX, rank 2 skewed to 4x the compute term, 5 epochs — through
// the lockstep driver.
func TestRunMonitoredParity(t *testing.T) {
	tab := loadParity(t)
	want := tab.Monitored
	cfg := parityConfig("resnet-gtx")
	replays := monitoredRanks(cfg, tab.DataSize, 4, 2, 4*float64(cfg.ComputeTime())/float64(cfg.IOTime()))
	res := RunMonitored(replays, 5, MonitoredConfig{SkewRank: 2})
	if int64(res.Wall) != want.WallNS || res.FlaggedEpoch != want.FlaggedEpoch ||
		!reflect.DeepEqual(res.Flagged, want.Flagged) || res.Polls != want.Polls {
		t.Errorf("got wall=%d flaggedEpoch=%d flagged=%v polls=%d, fork wall=%d flaggedEpoch=%d flagged=%v polls=%d",
			int64(res.Wall), res.FlaggedEpoch, res.Flagged, res.Polls,
			want.WallNS, want.FlaggedEpoch, want.Flagged, want.Polls)
	}
	if got := textLines(res.Report.String()); !reflect.DeepEqual(got, want.Report) {
		t.Errorf("report\n got %s\nwant %s", strings.Join(got, "\n     "), strings.Join(want.Report, "\n     "))
	}
	for r, rp := range replays {
		if got := textLines(rp.obs.Metrics.Snapshot().Text()); !reflect.DeepEqual(got, want.Registries[r]) {
			t.Errorf("rank %d registry\n got %s\nwant %s", r, strings.Join(got, "\n     "), strings.Join(want.Registries[r], "\n     "))
		}
	}
}
