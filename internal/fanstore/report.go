package fanstore

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"fanstore/internal/metrics"
	"fanstore/internal/mpi"
)

// ReportOptions configures the cluster report reduction.
type ReportOptions struct {
	// StragglerMetric is the histogram whose per-rank p99 drives
	// straggler detection (default "fanstore.open.latency"; the simulator
	// uses its epoch histogram instead).
	StragglerMetric string
	// StragglerFactor flags a rank whose p99 exceeds the median rank's
	// p99 by this factor. Values below 1 (including the zero value) are
	// replaced by the default 2.0 — detection cannot be disabled here;
	// leave Stragglers unread instead.
	StragglerFactor float64
	// Elapsed, when set, is the wall-clock window the snapshots cover, so
	// the report can state cluster files/s (the paper's Tables III/VI
	// unit). Zero omits the rate.
	Elapsed time.Duration
}

func (o *ReportOptions) defaults() {
	if o.StragglerMetric == "" {
		o.StragglerMetric = "fanstore.open.latency"
	}
	if o.StragglerFactor < 1 {
		o.StragglerFactor = 2.0
	}
}

// ClusterReport is the merged view of every rank's registry snapshot,
// plus the per-rank detail the reduction consumed. Rank i's snapshot is
// PerRank[i] (Allgather order).
type ClusterReport struct {
	PerRank    []metrics.RegistrySnapshot `json:"per_rank"`
	Merged     metrics.RegistrySnapshot   `json:"merged"`
	Stragglers []int                      `json:"stragglers,omitempty"`
	Options    ReportOptions              `json:"options"`
}

// BuildClusterReport folds per-rank snapshots (index = rank) into a
// cluster view and flags stragglers: ranks whose p99 on the straggler
// metric exceeds the median rank's p99 by the configured factor. It is
// pure — the simulator builds reports without a communicator, and the
// collective path (GatherReport) layers only the Allgather on top.
func BuildClusterReport(snaps []metrics.RegistrySnapshot, opts ReportOptions) ClusterReport {
	opts.defaults()
	r := ClusterReport{PerRank: snaps, Options: opts}
	for _, s := range snaps {
		r.Merged = r.Merged.Merge(s)
	}
	// Straggler detection: compare each rank's p99 to the median rank.
	p99s := make([]time.Duration, len(snaps))
	for i, s := range snaps {
		p99s[i] = s.Histograms[opts.StragglerMetric].P99
	}
	sorted := append([]time.Duration(nil), p99s...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if len(sorted) == 0 {
		return r
	}
	median := sorted[len(sorted)/2]
	if median <= 0 {
		return r // no signal on the chosen metric
	}
	limit := time.Duration(float64(median) * opts.StragglerFactor)
	for rank, p := range p99s {
		if p > limit {
			r.Stragglers = append(r.Stragglers, rank)
		}
	}
	return r
}

// FlagStragglers returns a closure folding per-rank snapshots into the
// flagged rank list — BuildClusterReport's detector in the shape
// obs.MonitorOptions.Flag wants, so the live health monitor and the
// end-of-run report can never disagree on methodology.
func FlagStragglers(opts ReportOptions) func([]metrics.RegistrySnapshot) []int {
	return func(snaps []metrics.RegistrySnapshot) []int {
		r := BuildClusterReport(snaps, opts)
		return r.Stragglers
	}
}

// GatherReport is the cluster-report collective: every rank snapshots
// reg, an Allgather exchanges the serialized snapshots, and every rank
// returns the same merged report (callers typically render it on rank 0
// only). Every rank of the communicator must call it together.
func GatherReport(comm *mpi.Comm, reg *metrics.Registry, opts ReportOptions) (ClusterReport, error) {
	frame, err := reg.Snapshot().Encode()
	if err != nil {
		return ClusterReport{}, fmt.Errorf("fanstore: report encode: %w", err)
	}
	frames, err := comm.Allgather(frame)
	if err != nil {
		return ClusterReport{}, fmt.Errorf("fanstore: report allgather: %w", err)
	}
	snaps := make([]metrics.RegistrySnapshot, len(frames))
	for rank, f := range frames {
		s, err := metrics.DecodeSnapshot(f)
		if err != nil {
			return ClusterReport{}, fmt.Errorf("fanstore: rank %d report: %w", rank, err)
		}
		snaps[rank] = s
	}
	return BuildClusterReport(snaps, opts), nil
}

// WriteSummary renders one registry snapshot — a rank's, or the merged
// cluster's — as the read-out every command prints at the end of a run:
// opens and files/s (the paper's Tables III/VI unit; elapsed is the window
// the snapshot covers, 0 omits rates), the open/fetch/decompress/service
// latency split, cache, remote traffic, the fetch daemon and client, and
// the rebalance and ec lines. A line appears when its
// subsystem did something, so the zero snapshot renders nothing. It is
// the only formatter of these numbers: a rank and the cluster cannot be
// summarised by different rules.
func WriteSummary(w io.Writer, s metrics.RegistrySnapshot, elapsed time.Duration) {
	c := func(name string) int64 { return s.Counters[name] }
	// Every Open lands in the open histogram; opens.local and opens.remote
	// count only the producers of a cache miss, so the rest were hits.
	if opens := s.Histograms["fanstore.open.latency"].Count; opens > 0 {
		local, remote := c("fanstore.opens.local"), c("fanstore.opens.remote")
		fmt.Fprintf(w, "opens: %d total  cached=%d local=%d remote=%d zerocopy=%d  decompressions=%d\n",
			opens, opens-local-remote, local, remote, c("fanstore.opens.zerocopy"), c("fanstore.decompresses"))
		if elapsed > 0 {
			fmt.Fprintf(w, "throughput: %.1f files/s over %v\n", float64(opens)/elapsed.Seconds(), elapsed)
		}
	}
	for _, h := range []struct{ label, name string }{
		{"open", "fanstore.open.latency"},
		{"fetch", "fanstore.fetch.latency"},
		{"decompress", "fanstore.decompress.latency"},
		{"rpc service", "rpc.server.service.latency"},
	} {
		if hs := s.Histograms[h.name]; hs.Count > 0 {
			fmt.Fprintf(w, "%-12s %s\n", h.label+":", hs.String())
		}
	}
	if hits, misses := c("fanstore.cache.hits"), c("fanstore.cache.misses"); hits+misses > 0 {
		fmt.Fprintf(w, "cache: hit ratio %.1f%%  evictions=%d  prefetched opens=%d retained=%d refused=%d\n",
			100*float64(hits)/float64(hits+misses), c("fanstore.cache.evictions"), c("fanstore.cache.prefetched_opens"),
			c("fanstore.cache.retained_opens"), c("fanstore.cache.stage_refused"))
	}
	if fetched, fo, batched := c("fanstore.bytes.remote"), c("fanstore.failovers"), c("fanstore.fetch.batched"); fetched+fo+batched > 0 {
		fmt.Fprintf(w, "remote: %d B fetched  failovers=%d  batched fetches=%d\n", fetched, fo, batched)
	}
	// Gauge high-water marks merge by max: the cluster line shows the
	// busiest pool any rank saw.
	if served, nf, errs, calls := c("rpc.server.served"), c("rpc.server.notfound"), c("rpc.server.errors"), c("rpc.client.calls"); served+nf+errs+calls > 0 {
		fmt.Fprintf(w, "rpc: served=%d not-found=%d errors=%d  peak in-service=%d  calls=%d retries=%d timeouts=%d\n",
			served, nf, errs, s.Gauges["rpc.server.inservice"].Max, calls, c("rpc.client.retries"), c("rpc.client.timeouts"))
	}
	// Elastic clusters only (a static map stays at version 1): rebalance
	// progress since mount. The map version gauge merges by max, so the
	// line shows the newest commit any rank has applied; pending sums the
	// coordinator's outstanding transfers (zero once every handoff
	// committed).
	if moved, ver := c("rebalance.bytes.moved"), s.Gauges["member.map.version"].Max; moved > 0 || ver > 1 {
		fmt.Fprintf(w, "rebalance: %d B moved  pending=%d  map version=%d  stale-map refreshes=%d\n",
			moved, s.Gauges["rebalance.partitions.pending"].Value, ver, c("fanstore.map.refreshes"))
	}
	// Erasure-coded clusters that lost (or repaired) a rank: how reads
	// behaved while the stripe was short. Degraded reads and repaired
	// bytes are both zero on a healthy run, which keeps the line out of
	// the fair-weather report.
	if deg, rep := c("ec.degraded.reads"), c("ec.repair.bytes"); deg > 0 || rep > 0 {
		line := fmt.Sprintf("ec: degraded reads=%d", deg)
		if hs := s.Histograms["ec.reconstruct.latency"]; hs.Count > 0 {
			line += fmt.Sprintf("  reconstruct p99=%v", hs.P99)
		}
		line += fmt.Sprintf("  repaired=%d B", rep)
		if elapsed > 0 && rep > 0 {
			line += fmt.Sprintf(" (%.1f MB/s)", float64(rep)/elapsed.Seconds()/1e6)
		}
		fmt.Fprintf(w, "%s\n", line)
	}
}

// Render writes the human-readable cluster report: the summary of the
// merged snapshot (WriteSummary — the same lines a rank prints for
// itself), the per-rank p99 spread, and flagged stragglers.
func (r *ClusterReport) Render(w io.Writer) {
	fmt.Fprintf(w, "=== cluster I/O report (%d ranks) ===\n", len(r.PerRank))
	WriteSummary(w, r.Merged, r.Options.Elapsed)
	var spread []string
	for rank, s := range r.PerRank {
		spread = append(spread, fmt.Sprintf("r%d=%v", rank, s.Histograms[r.Options.StragglerMetric].P99))
	}
	fmt.Fprintf(w, "per-rank p99 %s: %s\n", r.Options.StragglerMetric, strings.Join(spread, " "))
	if len(r.Stragglers) > 0 {
		labels := make([]string, len(r.Stragglers))
		for i, rank := range r.Stragglers {
			labels[i] = fmt.Sprintf("rank %d", rank)
		}
		fmt.Fprintf(w, "STRAGGLERS (p99 > %.1fx median): %s\n",
			r.Options.StragglerFactor, strings.Join(labels, ", "))
	} else {
		fmt.Fprintf(w, "stragglers: none\n")
	}
}

// String renders the report to a string.
func (r *ClusterReport) String() string {
	var b strings.Builder
	r.Render(&b)
	return b.String()
}
