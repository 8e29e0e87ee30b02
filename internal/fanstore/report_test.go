package fanstore

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"fanstore/internal/metrics"
	"fanstore/internal/mpi"
)

// rankSnapshot fabricates one rank's registry snapshot whose open
// latencies cluster around lat.
func rankSnapshot(opens int, lat time.Duration) metrics.RegistrySnapshot {
	r := metrics.NewRegistry()
	r.Counter("fanstore.opens.local").Add(int64(opens))
	r.Counter("fanstore.cache.hits").Add(int64(opens / 2))
	r.Counter("fanstore.cache.misses").Add(int64(opens - opens/2))
	h := r.Histogram("fanstore.open.latency")
	for i := 0; i < opens; i++ {
		h.Observe(lat)
	}
	return r.Snapshot()
}

// TestBuildClusterReportFlagsStraggler is the acceptance test for
// straggler detection: three healthy ranks around 100us and one rank an
// order of magnitude slower must flag exactly the slow rank.
func TestBuildClusterReportFlagsStraggler(t *testing.T) {
	snaps := []metrics.RegistrySnapshot{
		rankSnapshot(50, 100*time.Microsecond),
		rankSnapshot(50, 110*time.Microsecond),
		rankSnapshot(50, 2*time.Millisecond), // the artificially slowed rank
		rankSnapshot(50, 90*time.Microsecond),
	}
	r := BuildClusterReport(snaps, ReportOptions{Elapsed: 2 * time.Second})
	if len(r.Stragglers) != 1 || r.Stragglers[0] != 2 {
		t.Fatalf("stragglers = %v, want [2]", r.Stragglers)
	}
	if got := r.Merged.Counters["fanstore.opens.local"]; got != 200 {
		t.Fatalf("merged opens = %d, want 200", got)
	}
	if got := r.Merged.Histograms["fanstore.open.latency"].Count; got != 200 {
		t.Fatalf("merged histogram count = %d, want 200", got)
	}
	out := r.String()
	for _, want := range []string{
		"4 ranks", "opens: 200", "files/s", "hit ratio 50.0%",
		"STRAGGLERS", "rank 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestBuildClusterReportHealthy(t *testing.T) {
	snaps := []metrics.RegistrySnapshot{
		rankSnapshot(10, 100*time.Microsecond),
		rankSnapshot(10, 120*time.Microsecond),
	}
	r := BuildClusterReport(snaps, ReportOptions{})
	if len(r.Stragglers) != 0 {
		t.Fatalf("healthy cluster flagged stragglers: %v", r.Stragglers)
	}
	if !strings.Contains(r.String(), "stragglers: none") {
		t.Fatalf("report: %s", r.String())
	}
	// Empty input must not panic or divide by zero.
	empty := BuildClusterReport(nil, ReportOptions{})
	if len(empty.Stragglers) != 0 || strings.Contains(empty.String(), "hit ratio") {
		t.Fatalf("empty report not inert:\n%s", empty.String())
	}
}

// TestGatherReportCollective runs the real collective on a 4-rank world:
// every rank contributes its registry, rank 3 is artificially slowed,
// and every rank must converge on the same merged report with rank 3
// flagged.
func TestGatherReportCollective(t *testing.T) {
	err := mpi.Run(4, func(c *mpi.Comm) error {
		reg := metrics.NewRegistry()
		reg.Counter("fanstore.opens.local").Add(25)
		lat := 100 * time.Microsecond
		if c.Rank() == 3 {
			lat = 5 * time.Millisecond // the slowed rank
		}
		h := reg.Histogram("fanstore.open.latency")
		for i := 0; i < 25; i++ {
			h.Observe(lat)
		}
		r, err := GatherReport(c, reg, ReportOptions{})
		if err != nil {
			return err
		}
		if got := r.Merged.Counters["fanstore.opens.local"]; got != 100 {
			return fmt.Errorf("rank %d: merged opens = %d, want 100", c.Rank(), got)
		}
		if len(r.PerRank) != 4 {
			return fmt.Errorf("rank %d: %d per-rank snapshots", c.Rank(), len(r.PerRank))
		}
		if len(r.Stragglers) != 1 || r.Stragglers[0] != 3 {
			return fmt.Errorf("rank %d: stragglers = %v, want [3]", c.Rank(), r.Stragglers)
		}
		if !strings.Contains(r.String(), "rank 3") {
			return fmt.Errorf("rank %d: report does not name the straggler", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReportRendersECLine checks the degraded-read line: absent on a
// healthy run, present — with reconstruct p99 and rebuild throughput —
// once a rank loss put erasure reads on the reconstruction path.
func TestReportRendersECLine(t *testing.T) {
	healthy := BuildClusterReport([]metrics.RegistrySnapshot{
		rankSnapshot(10, 100*time.Microsecond),
	}, ReportOptions{})
	if strings.Contains(healthy.String(), "ec:") {
		t.Fatalf("healthy report renders an ec line:\n%s", healthy.String())
	}

	reg := metrics.NewRegistry()
	reg.Counter("fanstore.opens.remote").Add(40)
	reg.Counter("ec.degraded.reads").Add(17)
	reg.Counter("ec.repair.bytes").Add(3 << 20)
	for i := 0; i < 8; i++ {
		reg.Histogram("ec.reconstruct.latency").Observe(3 * time.Millisecond)
	}
	r := BuildClusterReport([]metrics.RegistrySnapshot{reg.Snapshot()},
		ReportOptions{Elapsed: 2 * time.Second})
	out := r.String()
	for _, want := range []string{
		"ec: degraded reads=17", "reconstruct p99=", "repaired=3145728 B", "MB/s",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("ec report missing %q:\n%s", want, out)
		}
	}
}
