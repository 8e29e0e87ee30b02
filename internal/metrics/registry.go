package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count. The zero value is
// ready to use; a nil Counter is inert, so instrumentation can stay
// unconditional even when a component runs unregistered.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous level (queue depth, in-service requests)
// that also tracks its high-water mark. The zero value is ready to use;
// a nil Gauge is inert.
type Gauge struct {
	v, max atomic.Int64
}

// Inc raises the gauge by one, folding the new level into the
// high-water mark.
func (g *Gauge) Inc() {
	if g == nil {
		return
	}
	v := g.v.Add(1)
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Dec lowers the gauge by one.
func (g *Gauge) Dec() {
	if g == nil {
		return
	}
	g.v.Add(-1)
}

// Set replaces the gauge's level, folding it into the high-water mark.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Max returns the high-water mark.
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.max.Load()
}

// Registry is a named instrument table: one per rank, shared by every
// component on the data path (store, rpc, prefetch, training loop), so
// a single snapshot captures the whole rank and cluster reductions can
// merge rank snapshots name-by-name.
//
// Lookups get-or-create, so wiring order never matters; instruments are
// cheap enough to create eagerly. Names are dotted paths
// ("fanstore.open.latency"); the text exposition sorts them, making the
// output diffable and golden-testable. A nil *Registry hands out inert
// unregistered instruments, so optional observability costs callers no
// branches.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	collectors []func()
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns an unregistered (but usable) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return new(Counter)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = new(Counter)
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil
// registry returns an unregistered (but usable) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return new(Gauge)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = new(Gauge)
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use. A
// nil registry returns an unregistered (but usable) histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return new(Histogram)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = new(Histogram)
		r.histograms[name] = h
	}
	return h
}

// OnSnapshot registers fn to run at the start of every Snapshot and
// SnapshotInto, before any instrument is read: the way a component
// publishes levels it already keeps (the cache's occupancy atomics) as
// gauges without touching a gauge on its own hot path — they are set when
// somebody looks, a sampler tick included. fn runs without the registry
// lock, possibly from several goroutines at once. A nil registry ignores
// it.
func (r *Registry) OnSnapshot(fn func()) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

// collect runs the registered collectors. The slice is append-only, so
// the header read under the lock stays valid outside it.
func (r *Registry) collect() {
	r.mu.Lock()
	fns := r.collectors
	r.mu.Unlock()
	for _, fn := range fns {
		fn()
	}
}

// GaugeValue is a gauge's snapshot: current level and high-water mark.
type GaugeValue struct {
	Value int64 `json:"value"`
	Max   int64 `json:"max"`
}

// RegistrySnapshot is a point-in-time copy of every instrument,
// serializable (JSON) for cluster collectives and -stats-json dumps.
type RegistrySnapshot struct {
	Counters   map[string]int64      `json:"counters,omitempty"`
	Gauges     map[string]GaugeValue `json:"gauges,omitempty"`
	Histograms map[string]Snapshot   `json:"histograms,omitempty"`
}

// Snapshot captures every registered instrument. A nil registry yields
// an empty snapshot.
func (r *Registry) Snapshot() RegistrySnapshot {
	s := RegistrySnapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]GaugeValue{},
		Histograms: map[string]Snapshot{},
	}
	if r == nil {
		return s
	}
	r.collect()
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	hists := make(map[string]*Histogram, len(r.histograms))
	for n, h := range r.histograms {
		hists[n] = h
	}
	r.mu.Unlock()
	for n, c := range counters {
		s.Counters[n] = c.Value()
	}
	for n, g := range gauges {
		s.Gauges[n] = GaugeValue{Value: g.Value(), Max: g.Max()}
	}
	for n, h := range hists {
		s.Histograms[n] = h.Snapshot()
	}
	return s
}

// SnapshotInto captures every registered instrument into s, reusing
// s's maps when present — the allocation-free sibling of Snapshot for
// periodic samplers that re-snapshot the same registry forever. Unlike
// Snapshot it reads instrument values while holding the registry lock:
// the reads are single atomic loads, so the hold time stays tiny, and
// in exchange the steady state (no instrument registered since the
// last call) performs zero allocations. Keys are never deleted from
// s's maps; instruments are never removed from a registry, so a stale
// key can only appear if s is reused across different registries.
func (r *Registry) SnapshotInto(s *RegistrySnapshot) {
	if s.Counters == nil {
		s.Counters = map[string]int64{}
	}
	if s.Gauges == nil {
		s.Gauges = map[string]GaugeValue{}
	}
	if s.Histograms == nil {
		s.Histograms = map[string]Snapshot{}
	}
	if r == nil {
		return
	}
	r.collect()
	r.mu.Lock()
	defer r.mu.Unlock()
	for n, c := range r.counters {
		s.Counters[n] = c.Value()
	}
	for n, g := range r.gauges {
		s.Gauges[n] = GaugeValue{Value: g.Value(), Max: g.Max()}
	}
	for n, h := range r.histograms {
		s.Histograms[n] = h.Snapshot()
	}
}

// Delta returns the instrument-wise difference between s and an
// earlier snapshot of the same registry: counters subtract exactly
// (both are monotonic totals), histograms subtract Count/Sum/buckets
// and re-derive windowed quantiles (see Snapshot.Delta), and gauges —
// levels, not totals — carry s's current value and high-water mark
// through unchanged. The zero RegistrySnapshot works as "the
// beginning", making Delta against it the identity.
func (s RegistrySnapshot) Delta(prev RegistrySnapshot) RegistrySnapshot {
	d := RegistrySnapshot{
		Counters:   make(map[string]int64, len(s.Counters)),
		Gauges:     make(map[string]GaugeValue, len(s.Gauges)),
		Histograms: make(map[string]Snapshot, len(s.Histograms)),
	}
	s.DeltaInto(prev, &d)
	return d
}

// DeltaInto writes the s-minus-prev difference into out, reusing out's
// maps when present (the sampler's ring-slot path: after the instrument
// set stabilizes, computing a window is allocation-free). Semantics
// match Delta. out is assumed to track the same registry as s — keys
// absent from s are left untouched in out.
func (s RegistrySnapshot) DeltaInto(prev RegistrySnapshot, out *RegistrySnapshot) {
	if out.Counters == nil {
		out.Counters = map[string]int64{}
	}
	if out.Gauges == nil {
		out.Gauges = map[string]GaugeValue{}
	}
	if out.Histograms == nil {
		out.Histograms = map[string]Snapshot{}
	}
	for n, v := range s.Counters {
		out.Counters[n] = v - prev.Counters[n]
	}
	for n, v := range s.Gauges {
		out.Gauges[n] = v
	}
	for n, v := range s.Histograms {
		out.Histograms[n] = v.Delta(prev.Histograms[n])
	}
}

// Merge returns the element-wise combination of two snapshots: counters
// and gauge levels add, gauge high-water marks take the maximum, and
// histograms merge sample-by-sample. Like Snapshot.Merge it is
// commutative and associative, so a cluster reduction may fold rank
// snapshots in any order.
func (s RegistrySnapshot) Merge(o RegistrySnapshot) RegistrySnapshot {
	m := RegistrySnapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]GaugeValue{},
		Histograms: map[string]Snapshot{},
	}
	for n, v := range s.Counters {
		m.Counters[n] = v
	}
	for n, v := range o.Counters {
		m.Counters[n] += v
	}
	for n, v := range s.Gauges {
		m.Gauges[n] = v
	}
	for n, v := range o.Gauges {
		g := m.Gauges[n]
		g.Value += v.Value
		if v.Max > g.Max {
			g.Max = v.Max
		}
		m.Gauges[n] = g
	}
	for n, v := range s.Histograms {
		m.Histograms[n] = v
	}
	for n, v := range o.Histograms {
		m.Histograms[n] = m.Histograms[n].Merge(v)
	}
	return m
}

// Encode serializes the snapshot for transport (the cluster-report
// Allgather frame and the -stats-json dump share this representation).
func (s RegistrySnapshot) Encode() ([]byte, error) {
	return json.Marshal(s)
}

// DecodeSnapshot parses an Encode frame.
func DecodeSnapshot(data []byte) (RegistrySnapshot, error) {
	var s RegistrySnapshot
	err := json.Unmarshal(data, &s)
	return s, err
}

// WriteText renders the snapshot in the stable text-exposition format:
//
//	counter <name> <value>
//	gauge <name> <value> max <high-water>
//	histogram <name> count=<n> sum_us=<us> mean_us=<us> p50_us=<us> p99_us=<us> buckets=<i>:<n>,...
//
// Lines are grouped by kind (counters, gauges, histograms) and sorted
// by name within each group; histogram buckets list only non-empty
// buckets as index:count pairs. The format is pinned by a golden test —
// extend it, don't reshape it.
func (s RegistrySnapshot) WriteText(w io.Writer) error {
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, err := fmt.Fprintf(w, "counter %s %d\n", n, s.Counters[n]); err != nil {
			return err
		}
	}
	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		g := s.Gauges[n]
		if _, err := fmt.Fprintf(w, "gauge %s %d max %d\n", n, g.Value, g.Max); err != nil {
			return err
		}
	}
	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := s.Histograms[n]
		var b strings.Builder
		for i, c := range h.Buckets {
			if c == 0 {
				continue
			}
			if b.Len() > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d:%d", i, c)
		}
		if _, err := fmt.Fprintf(w, "histogram %s count=%d sum_us=%d mean_us=%d p50_us=%d p99_us=%d buckets=%s\n",
			n, h.Count, h.Sum,
			h.Mean.Microseconds(), h.P50.Microseconds(), h.P99.Microseconds(),
			b.String()); err != nil {
			return err
		}
	}
	return nil
}

// Text renders WriteText to a string (CLI and test convenience).
func (s RegistrySnapshot) Text() string {
	var b strings.Builder
	_ = s.WriteText(&b)
	return b.String()
}

// ObserveSince records the elapsed time since start into h — sugar for
// the instrument-at-return pattern: defer'd or at each exit point.
func ObserveSince(h *Histogram, start time.Time) {
	if h != nil {
		h.Observe(time.Since(start))
	}
}
