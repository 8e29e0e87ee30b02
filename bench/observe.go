package main

import (
	"runtime"
	"time"

	"fanstore"
	"fanstore/internal/prefetch"
)

// tracerRing sizes the program's span ring so a timed window of the
// busiest workload (train_small, ~4 spans per file) fits without
// overwriting; the pages are only touched as spans land.
const tracerRing = 1 << 21

// observer is everything a traced run attaches to the program: the
// bench-owned span recorder behind wrappers at the public seams, and the
// registry and tracer the program already exposes, read back by name.
// The e2e run has none (a nil *observer), so its methods are nil-safe.
type observer struct {
	rec           *recorder
	regs          [ranks]*fanstore.Registry
	tracers       [ranks]*fanstore.Tracer
	before, after [ranks]fanstore.RegistrySnapshot
}

func newObserver() *observer {
	o := &observer{rec: newRecorder()}
	for r := range o.regs {
		o.regs[r] = fanstore.NewRegistry()
		o.tracers[r] = fanstore.NewTracer(r, tracerRing)
	}
	return o
}

func (o *observer) recorder() *recorder {
	if o == nil {
		return nil
	}
	return o.rec
}

// sinks are the rank's registry and tracer, nil on the e2e run.
func (o *observer) sinks(rank int) (*fanstore.Registry, *fanstore.Tracer) {
	if o == nil {
		return nil, nil
	}
	return o.regs[rank], o.tracers[rank]
}

// attach wires the rank's sinks and a span-recording backend into the
// mount options.
func (o *observer) attach(opts *fanstore.Options, rank int) {
	if o == nil {
		return
	}
	opts.Metrics, opts.Tracer = o.regs[rank], o.tracers[rank]
	opts.Backend = &tracedBackend{Backend: fanstore.NewRAMBackend(), rec: o.rec, rank: rank}
}

// seams returns what the prefetch pipeline reads from and plans against:
// the node itself, or wrappers that time each call on a traced run.
func (o *observer) seams(node *fanstore.Node, rank int) (prefetch.Reader, prefetch.PlanStore) {
	if o == nil {
		return node, node
	}
	return &tracedReader{node: node, rec: o.rec, rank: rank}, &tracedStore{Node: node, rec: o.rec, rank: rank}
}

func (o *observer) windowStart() {
	if o == nil {
		return
	}
	for r, reg := range o.regs {
		o.before[r] = reg.Snapshot()
	}
	o.rec.on.Store(true)
}

func (o *observer) windowEnd() {
	if o == nil {
		return
	}
	o.rec.on.Store(false)
	for r, reg := range o.regs {
		o.after[r] = reg.Snapshot()
	}
}

// tracedReader times Node.ReadFile as the pipeline's worker sees it,
// split by whether the plan calls the path local or remote.
type tracedReader struct {
	node *fanstore.Node
	rec  *recorder
	rank int
}

func (t *tracedReader) ReadFile(path string) ([]byte, error) {
	name := "fs.readfile.local"
	if _, far := t.node.PlanTarget(path); far {
		name = "fs.readfile.remote"
	}
	m := t.rec.beginWorker(name, t.rank)
	data, err := t.node.ReadFile(path)
	t.rec.end(m)
	return data, err
}

// tracedStore times the scheduler's staging calls into the store.
type tracedStore struct {
	*fanstore.Node
	rec  *recorder
	rank int
}

// Prefetch shadows Node.Prefetch with a timed call.
func (t *tracedStore) Prefetch(paths []string) int {
	m := t.rec.beginWorker("prefetch.stage", t.rank)
	n := t.Node.Prefetch(paths)
	t.rec.end(m)
	return n
}

// tracedBackend times the object lookups of the local open path and the
// daemon.
type tracedBackend struct {
	fanstore.Backend
	rec  *recorder
	rank int
}

// Get shadows Backend.Get with a timed call.
func (t *tracedBackend) Get(path string) (uint16, []byte, error) {
	m := t.rec.beginWorker("fanstore.backend.get", t.rank)
	id, data, err := t.Backend.Get(path)
	t.rec.end(m)
	return id, data, err
}

// Peek shadows Backend.Peek with a timed call.
func (t *tracedBackend) Peek(path string) (uint16, []byte, bool) {
	m := t.rec.beginWorker("fanstore.backend.get", t.rank)
	id, data, ok := t.Backend.Peek(path)
	t.rec.end(m)
	return id, data, ok
}

// layerOut collects a traced run's per-layer values, and the sample
// count behind each value that is a statistic of a sample.
type layerOut struct {
	values  map[string]float64
	samples map[string]int
}

// p50 and tail report the median and the q-quantile of xs under name; a
// tail the sample is too small to support reads 0.
func (o layerOut) p50(name string, xs []float64) {
	o.values[name], o.samples[name] = median(xs), len(xs)
}

func (o layerOut) tail(name string, xs []float64, q float64) {
	o.values[name], o.samples[name] = tailOrZero(xs, q), len(xs)
}

// spanMetrics fills the (S) metrics: statistics of the bench-owned spans.
func (o *observer) spanMetrics(sp spec, w *window, out layerOut) {
	rec := o.rec
	next := rec.of("prefetch.next", time.Millisecond)
	out.p50("prefetch.next_wait_ms_p50", next)
	out.tail("prefetch.next_wait_ms_p95", next, 0.95)
	out.p50("prefetch.buildplan_ms", rec.of("prefetch.buildplan", time.Millisecond))
	stage := rec.of("prefetch.stage", time.Second)
	out.values["prefetch.stage_calls_per_epoch"] = ratio(float64(len(stage)), float64(len(w.epochWalls)))
	out.values["prefetch.stage_busy_frac"] = ratio(sum(stage), w.wall().Seconds()*ranks)
	out.p50("fanstore.fs.readfile_local_us_p50", rec.of("fs.readfile.local", time.Microsecond))
	remote := rec.of("fs.readfile.remote", time.Microsecond)
	out.p50("fanstore.fs.readfile_remote_us_p50", remote)
	out.tail("fanstore.fs.readfile_remote_us_p95", remote, 0.95)
	out.p50("fanstore.fs.writefile_us", rec.of("fs.writefile", time.Microsecond))
	out.p50("fanstore.backend.get_ns", rec.of("fanstore.backend.get", time.Nanosecond))
	out.p50("mpi.allgather_us_p50", rec.of("mpi.allgather", time.Microsecond))
	out.p50("mpi.barrier_us_p50", rec.of("mpi.barrier", time.Microsecond))
	out.p50("iter.self_us_p50", rec.of("iter.self", time.Microsecond))
	if sp.coldOpens {
		out.tail("open.p999_us", durs(w.steps, time.Microsecond), 0.999)
	} else {
		out.tail("iter.p99_ms", durs(w.steps, time.Millisecond), 0.99)
	}
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// registry is the merged registry delta of a window, read by name. A name
// the program no longer publishes reads as zero with a warning: the
// benchmark must keep running when an instrument is renamed or removed.
type registry struct{ snap fanstore.RegistrySnapshot }

func (r registry) counter(name string) float64 {
	v, ok := r.snap.Counters[name]
	if !ok {
		warnf("registry publishes no counter %q; reading 0", name)
	}
	return float64(v)
}

// latency returns a histogram's mean and bucket-resolution p95 in
// microseconds. The program's histograms have power-of-two buckets, so
// the p95 is an upper bound within a factor of two; the mean is exact to
// the microsecond truncation of each sample.
func (r registry) latency(name string) (meanUS, p95US float64) {
	h, ok := r.snap.Histograms[name]
	if !ok {
		warnf("registry publishes no histogram %q; reading 0", name)
		return 0, 0
	}
	if h.Count == 0 {
		return 0, 0
	}
	return float64(h.Sum) / float64(h.Count), float64(h.Quantile(0.95)) / float64(time.Microsecond)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// programSpans groups the program's own tracer spans that started inside
// the window by operation name, in microseconds.
func (o *observer) programSpans(w *window) map[string][]float64 {
	byOp := make(map[string][]float64)
	for _, tr := range o.tracers {
		if d := tr.Dropped(); d > 0 {
			warnf("tracer ring of rank %d overwrote %d spans; in-program timings cover the rest", tr.Rank(), d)
		}
		origin := tr.Epoch()
		for _, s := range tr.Spans() {
			at := origin.Add(s.Start)
			if at.Before(w.from.at) || !at.Before(w.to.at) {
				continue
			}
			op := s.Op.String()
			byOp[op] = append(byOp[op], float64(s.Dur)/float64(time.Microsecond))
		}
	}
	return byOp
}

// registryMetrics fills the (R) metrics: counts and in-program times the
// program publishes itself, read by name over the window.
func (o *observer) registryMetrics(sp spec, w *window, lo layerOut) {
	out := lo.values
	var reg registry
	for r := range o.regs {
		reg.snap = reg.snap.Merge(o.after[r].Delta(o.before[r]))
	}
	files := float64(w.files)
	kfiles := files / 1000
	hits, misses := reg.counter("fanstore.cache.hits"), reg.counter("fanstore.cache.misses")
	out["fanstore.cache.hit_ratio"] = ratio(hits, hits+misses)
	out["fanstore.cache.evictions_per_file"] = ratio(reg.counter("fanstore.cache.evictions"), files)
	out["fanstore.store.remote_open_frac"] = ratio(reg.counter("fanstore.opens.remote"), files)
	out["fanstore.store.wire_bytes_per_file"] = ratio(reg.counter("fanstore.bytes.remote"), files)
	batched := reg.counter("fanstore.fetch.batched")
	out["fanstore.store.batched_fetches_per_kfile"] = ratio(batched, kfiles)
	out["fanstore.flight.coalesced_per_kfile"] = ratio(reg.counter("fanstore.fetch.coalesced"), kfiles)
	out["fanstore.failovers"] = reg.counter("fanstore.failovers")
	out["decomp.jobs_per_file"] = ratio(reg.counter("decomp.jobs"), files)
	out["decomp.queue_wait_us_mean"], out["decomp.queue_wait_us_p95"] = reg.latency("decomp.queue.wait.latency")
	out["rpc.client.calls_per_kfile"] = ratio(reg.counter("rpc.client.calls"), kfiles)
	out["rpc.client.retries"] = reg.counter("rpc.client.retries")
	out["rpc.client.timeouts"] = reg.counter("rpc.client.timeouts")
	out["rpc.client.attempt_us_mean"], out["rpc.client.attempt_us_p95"] = reg.latency("rpc.client.attempt.latency")
	out["rpc.server.service_us_mean"], out["rpc.server.service_us_p95"] = reg.latency("rpc.server.service.latency")
	if !sp.coldOpens { // open_cold runs no pipeline, so nothing registers these
		staged := reg.counter("prefetch.plan.staged")
		out["fanstore.cache.prefetched_open_ratio"] = ratio(reg.counter("fanstore.cache.prefetched_opens"), staged)
		out["fanstore.store.objects_per_batched_fetch"] = ratio(staged, batched)
		out["prefetch.plan.admission_waits_per_epoch"] = ratio(reg.counter("prefetch.plan.admission.waits"), float64(len(w.epochWalls)))
		out["prefetch.plan.skipped_frac"] = ratio(reg.counter("prefetch.plan.skipped"), reg.counter("prefetch.plan.items"))
		out["prefetch.stalls_per_iter"] = ratio(reg.counter("prefetch.stalls"), float64(len(w.steps)))
	}

	spans := o.programSpans(w)
	lo.p50("fanstore.store.fetch_us_p50", spans["fetch"])
	lo.tail("fanstore.store.fetch_us_p95", spans["fetch"], 0.95)
	lo.p50("codec.decode_us_p50_insitu", spans["decompress"])
	out["codec.busy_frac"] = ratio(sum(spans["decompress"])/1e6, w.wall().Seconds()*float64(runtime.GOMAXPROCS(0)))
}
