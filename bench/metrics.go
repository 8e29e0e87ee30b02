package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"text/tabwriter"
)

// metricDef names one metric of the benchmark. BENCHMARK.json lists the
// same names, units, directions and bounds; a test keeps them in step.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"` // "higher" or "lower"
	// Bound is the share of the base's median by which an end-to-end
	// metric may get worse before it counts as a regression. Per-layer
	// metrics have none.
	Bound float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the store sees. They come from the
// e2e run only — no tracer, no shared registry, no wrappers — and every
// workload reports every one of them. A "step" is the closed loop's unit
// of work: one training iteration (Next + verify + Allgather, which waits
// for the slowest rank) in train_*, one Open+Read+Close in open_cold.
var endToEnd = []metricDef{
	{Name: "files_per_s", Unit: "files/s", Better: "higher", Bound: 0.25},
	{Name: "step_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "step_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_file", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alloc_kb_per_file", Unit: "KB", Better: "lower", Bound: 0.10},
	{Name: "rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer are the single-layer metrics of the traced run, prefixed by
// module. A metric that does not apply to a workload (prefetch on
// open_cold, open.p999_us on train_*) reads 0 there.
var perLayer = []metricDef{
	// (S) bench-owned spans at the program's outside seams.
	{Name: "prefetch.next_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "prefetch.next_wait_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "prefetch.buildplan_ms", Unit: "ms", Better: "lower"},
	{Name: "prefetch.stage_calls_per_epoch", Unit: "count", Better: "lower"},
	{Name: "prefetch.stage_busy_frac", Unit: "ratio", Better: "lower"},
	{Name: "fanstore.fs.readfile_local_us_p50", Unit: "us", Better: "lower"},
	{Name: "fanstore.fs.readfile_remote_us_p50", Unit: "us", Better: "lower"},
	{Name: "fanstore.fs.readfile_remote_us_p95", Unit: "us", Better: "lower"},
	{Name: "fanstore.fs.writefile_us", Unit: "us", Better: "lower"},
	{Name: "fanstore.backend.get_ns", Unit: "ns", Better: "lower"},
	{Name: "mpi.allgather_us_p50", Unit: "us", Better: "lower"},
	{Name: "mpi.barrier_us_p50", Unit: "us", Better: "lower"},
	{Name: "iter.self_us_p50", Unit: "us", Better: "lower"},
	{Name: "iter.p99_ms", Unit: "ms", Better: "lower"},
	{Name: "open.p999_us", Unit: "us", Better: "lower"},
	// (R) counts and in-program times read by name from the registry and
	// the tracer over the timed window.
	{Name: "fanstore.cache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "fanstore.cache.evictions_per_file", Unit: "count", Better: "lower"},
	{Name: "fanstore.cache.prefetched_open_ratio", Unit: "ratio", Better: "higher"},
	{Name: "fanstore.store.remote_open_frac", Unit: "ratio", Better: "lower"},
	{Name: "fanstore.store.wire_bytes_per_file", Unit: "B", Better: "lower"},
	{Name: "fanstore.store.fetch_us_p50", Unit: "us", Better: "lower"},
	{Name: "fanstore.store.fetch_us_p95", Unit: "us", Better: "lower"},
	{Name: "fanstore.store.batched_fetches_per_kfile", Unit: "count", Better: "lower"},
	{Name: "fanstore.store.objects_per_batched_fetch", Unit: "count", Better: "higher"},
	{Name: "fanstore.flight.coalesced_per_kfile", Unit: "count", Better: "lower"},
	{Name: "fanstore.failovers", Unit: "count", Better: "lower"},
	{Name: "codec.decode_us_p50_insitu", Unit: "us", Better: "lower"},
	{Name: "codec.busy_frac", Unit: "ratio", Better: "lower"},
	{Name: "decomp.queue_wait_us_mean", Unit: "us", Better: "lower"},
	{Name: "decomp.queue_wait_us_p95", Unit: "us", Better: "lower"},
	{Name: "decomp.jobs_per_file", Unit: "count", Better: "lower"},
	{Name: "rpc.client.calls_per_kfile", Unit: "count", Better: "lower"},
	{Name: "rpc.client.attempt_us_mean", Unit: "us", Better: "lower"},
	{Name: "rpc.client.attempt_us_p95", Unit: "us", Better: "lower"},
	{Name: "rpc.client.retries", Unit: "count", Better: "lower"},
	{Name: "rpc.client.timeouts", Unit: "count", Better: "lower"},
	{Name: "rpc.server.service_us_mean", Unit: "us", Better: "lower"},
	{Name: "rpc.server.service_us_p95", Unit: "us", Better: "lower"},
	{Name: "prefetch.plan.admission_waits_per_epoch", Unit: "count", Better: "lower"},
	{Name: "prefetch.plan.skipped_frac", Unit: "ratio", Better: "lower"},
	{Name: "prefetch.stalls_per_iter", Unit: "count", Better: "lower"},
	// (P) isolated probes over the workload's objects and transport.
	{Name: "codec.decode_us", Unit: "us", Better: "lower"},
	{Name: "codec.decode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "decomp.dispatch_us", Unit: "us", Better: "lower"},
	{Name: "mpi.rtt_us", Unit: "us", Better: "lower"},
	{Name: "mpi.alloc_bytes_per_msg", Unit: "B", Better: "lower"},
	{Name: "mpi.allocs_per_msg", Unit: "count", Better: "lower"},
	{Name: "mpi.recv_us_backlog256", Unit: "us", Better: "lower"},
	{Name: "rpc.call_us", Unit: "us", Better: "lower"},
	{Name: "rpc.overhead_us", Unit: "us", Better: "lower"},
	{Name: "rpc.alloc_bytes_per_call", Unit: "B", Better: "lower"},
	{Name: "rpc.allocs_per_call", Unit: "count", Better: "lower"},
	{Name: "rpc.copy_factor", Unit: "ratio", Better: "lower"},
	{Name: "fanstore.meta.stat_ns", Unit: "ns", Better: "lower"},
	{Name: "fanstore.fs.open_hit_us", Unit: "us", Better: "lower"},
	{Name: "fanstore.fs.open_hit_allocs", Unit: "count", Better: "lower"},
	{Name: "fanstore.fs.open_local_us", Unit: "us", Better: "lower"},
	{Name: "fanstore.fs.open_remote_us", Unit: "us", Better: "lower"},
	{Name: "fanstore.store.mount_ms", Unit: "ms", Better: "lower"},
	{Name: "pack.build_mb_per_s", Unit: "MB/s", Better: "higher"},
	// Derived from the two runs of a traced invocation.
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "budget.sum_us", Unit: "us", Better: "lower"},
	{Name: "budget.unexplained_frac", Unit: "ratio", Better: "lower"},
}

// measured is one reported value.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a workload run's standard output: exactly
// these keys, as the benchmark contract fixes them.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

// newResult reports values under defs: every metric of defs appears,
// reading 0 when values has no (finite) number for it, and nothing else.
func newResult(defs []metricDef, values map[string]float64, attempted, failed int64, ok bool) result {
	r := result{Correct: ok && failed == 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]measured, len(defs))}
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		known[d.Name] = true
		v := values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		r.Metrics[d.Name] = measured{Value: v, Unit: d.Unit}
	}
	for name := range values {
		if !known[name] {
			warnf("value %q is not a declared metric; dropped", name)
		}
	}
	return r
}

// printTable writes the metrics of r by name with unit, sample count
// (where the metric is a statistic of a sample) and regression bound.
func printTable(w io.Writer, defs []metricDef, r result, samples map[string]int) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tvalue\tunit\tn\tbetter\tbound")
	for _, d := range defs {
		n, bound := "-", "-"
		if c, ok := samples[d.Name]; ok {
			n = fmt.Sprint(c)
		}
		if d.Bound > 0 {
			bound = fmt.Sprintf("%.2f", d.Bound)
		}
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\t%s\t%s\n", d.Name, r.Metrics[d.Name].Value, d.Unit, n, d.Better, bound)
	}
	tw.Flush() // stdout; a failed write has nowhere else to be reported
}

// emit prints r as one JSON line, the last line of standard output.
func emit(w io.Writer, r result) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
