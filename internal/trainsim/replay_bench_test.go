package trainsim

import (
	"testing"
	"time"

	"fanstore/internal/cluster"
)

// BenchmarkEpochReplayFill prices the epoch plan's per-epoch cold fill
// on the calibrated replay model: ResNet-50 on GTX, 4 nodes, 75% remote,
// 16-iteration epochs, with the Skew knob set to 100 so I/O is congested
// enough for the fill term to matter (the paper's healthy clusters are
// compute-bound and hide it). The modeled epoch wall time is reported as
// the epoch-ms metric — lower is better; ns/op only times the model
// arithmetic itself.
func BenchmarkEpochReplayFill(b *testing.B) {
	cfg := Config{App: cluster.ResNet50, Clust: cluster.GTX, Nodes: 4, Ratio: 1, RemoteFrac: 0.75}
	dataSize := cfg.App.CBatch * cfg.Nodes * 16
	var total time.Duration
	for i := 0; i < b.N; i++ {
		total += cfg.NewReplay(dataSize, Scenario{Plan: &PlanConfig{}}, SimObserver{Skew: 100}).Run(1)
	}
	b.ReportMetric(float64(total.Milliseconds())/float64(b.N), "epoch-ms")
}
