package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.count")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if r.Counter("a.count") != c {
		t.Fatal("counter lookup is not stable")
	}

	g := r.Gauge("a.gauge")
	g.Inc()
	g.Inc()
	g.Inc()
	g.Dec()
	if g.Value() != 2 || g.Max() != 3 {
		t.Fatalf("gauge = %d max %d, want 2 max 3", g.Value(), g.Max())
	}
	g.Set(10)
	g.Set(1)
	if g.Value() != 1 || g.Max() != 10 {
		t.Fatalf("gauge = %d max %d, want 1 max 10", g.Value(), g.Max())
	}
}

func TestNilRegistryAndInstruments(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	g := r.Gauge("y")
	g.Inc()
	r.Histogram("z").Observe(time.Millisecond)
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
	var nc *Counter
	nc.Add(1)
	var ng *Gauge
	ng.Inc()
	ng.Dec()
	ng.Set(2)
	if nc.Value() != 0 || ng.Value() != 0 || ng.Max() != 0 {
		t.Fatal("nil instruments not inert")
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				r.Counter("shared").Inc()
				r.Gauge("depth").Inc()
				r.Histogram("lat").Observe(time.Microsecond)
				r.Gauge("depth").Dec()
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 1600 {
		t.Fatalf("counter = %d, want 1600", got)
	}
	if got := r.Histogram("lat").Count(); got != 1600 {
		t.Fatalf("histogram count = %d, want 1600", got)
	}
}

// Quantile edge cases the cluster report leans on: q→0 and q=1 with
// single-sample and overflow-bucket data.
func TestQuantileEdgeCases(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		var h Histogram
		if h.Quantile(0) != 0 || h.Quantile(1) != 0 {
			t.Fatal("empty histogram quantiles must be 0")
		}
	})
	t.Run("single-sample", func(t *testing.T) {
		var h Histogram
		h.Observe(10 * time.Microsecond) // bucket 4: [8us, 16us)
		want := 16 * time.Microsecond
		for _, q := range []float64{0, 1e-9, 0.5, 1} {
			if got := h.Quantile(q); got != want {
				t.Fatalf("Quantile(%g) = %v, want %v", q, got, want)
			}
		}
		// Out-of-range q clamps rather than misbehaving.
		if h.Quantile(-1) != want || h.Quantile(2) != want {
			t.Fatal("out-of-range q did not clamp")
		}
	})
	t.Run("overflow-bucket", func(t *testing.T) {
		var h Histogram
		h.Observe(2 * time.Hour) // beyond 2^31 us: overflow bucket
		h.Observe(time.Microsecond)
		top := bucketUpper(numBuckets - 1)
		if got := h.Quantile(1); got != top {
			t.Fatalf("Quantile(1) = %v, want overflow bound %v", got, top)
		}
		if got := h.Quantile(1e-9); got != 2*time.Microsecond {
			t.Fatalf("Quantile(~0) = %v, want 2us", got)
		}
		s := h.Snapshot()
		if s.Max != top {
			t.Fatalf("snapshot max %v, want %v", s.Max, top)
		}
		if s.Quantile(1) != top {
			t.Fatalf("snapshot Quantile(1) = %v, want %v", s.Quantile(1), top)
		}
	})
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	for i := 0; i < 10; i++ {
		a.Observe(10 * time.Microsecond)
	}
	b.Observe(50 * time.Millisecond)
	a.Merge(&b)
	if a.Count() != 11 {
		t.Fatalf("merged count %d, want 11", a.Count())
	}
	if got := a.Quantile(1); got != 65536*time.Microsecond {
		t.Fatalf("merged p100 = %v, want 65.536ms bucket bound", got)
	}
	a.Merge(nil) // must be a no-op
	if a.Count() != 11 {
		t.Fatal("Merge(nil) changed the histogram")
	}
}

// Merge must be associative (and commutative): a cluster reduction may
// fold rank snapshots in any order and must land on identical state.
func TestSnapshotMergeAssociativity(t *testing.T) {
	mk := func(durs ...time.Duration) Snapshot {
		var h Histogram
		for _, d := range durs {
			h.Observe(d)
		}
		return h.Snapshot()
	}
	a := mk(time.Microsecond, 5*time.Microsecond)
	b := mk(3*time.Millisecond, 100*time.Millisecond, 2*time.Hour)
	c := mk(7 * time.Second)

	ab_c := a.Merge(b).Merge(c)
	a_bc := a.Merge(b.Merge(c))
	c_ba := c.Merge(b).Merge(a)
	if ab_c != a_bc || ab_c != c_ba {
		t.Fatalf("merge not associative/commutative:\n(a+b)+c=%+v\na+(b+c)=%+v\n(c+b)+a=%+v", ab_c, a_bc, c_ba)
	}
	if ab_c.Count != 6 {
		t.Fatalf("merged count %d, want 6", ab_c.Count)
	}
	// Derived fields are recomputed, not summed.
	wantMean := time.Duration(ab_c.Sum/ab_c.Count) * time.Microsecond
	if ab_c.Mean != wantMean {
		t.Fatalf("merged mean %v, want %v", ab_c.Mean, wantMean)
	}
}

func TestRegistrySnapshotMergeAndRoundTrip(t *testing.T) {
	r1, r2 := NewRegistry(), NewRegistry()
	r1.Counter("ops").Add(3)
	r2.Counter("ops").Add(4)
	r2.Counter("only.rank2").Inc()
	r1.Gauge("depth").Set(2)
	r2.Gauge("depth").Set(5)
	r1.Histogram("lat").Observe(time.Millisecond)
	r2.Histogram("lat").Observe(4 * time.Millisecond)

	m := r1.Snapshot().Merge(r2.Snapshot())
	if m.Counters["ops"] != 7 || m.Counters["only.rank2"] != 1 {
		t.Fatalf("merged counters: %+v", m.Counters)
	}
	if g := m.Gauges["depth"]; g.Value != 7 || g.Max != 5 {
		t.Fatalf("merged gauge: %+v", g)
	}
	if m.Histograms["lat"].Count != 2 {
		t.Fatalf("merged histogram count %d", m.Histograms["lat"].Count)
	}

	// Wire round trip preserves everything the merge consumed.
	frame, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeSnapshot(frame)
	if err != nil {
		t.Fatal(err)
	}
	if back.Counters["ops"] != 7 || back.Histograms["lat"].Count != 2 ||
		back.Histograms["lat"].Buckets != m.Histograms["lat"].Buckets {
		t.Fatalf("round trip mutated the snapshot: %+v", back)
	}
}

// Golden test pinning the text-exposition format: any reshaping of the
// output (ordering, field names, separators) must show up here.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("fanstore.opens.local").Add(42)
	r.Counter("fanstore.failovers")
	g := r.Gauge("rpc.server.inservice")
	g.Set(4)
	g.Set(1)
	h := r.Histogram("fanstore.open.latency")
	for i := 0; i < 3; i++ {
		h.Observe(10 * time.Microsecond) // bucket 4
	}
	h.Observe(3 * time.Millisecond) // bucket 12

	const golden = `counter fanstore.failovers 0
counter fanstore.opens.local 42
gauge rpc.server.inservice 1 max 4
histogram fanstore.open.latency count=4 sum_us=3030 mean_us=757 p50_us=16 p99_us=16 buckets=4:3,12:1
`
	if got := r.Snapshot().Text(); got != golden {
		t.Fatalf("exposition format changed:\n--- got ---\n%s--- want ---\n%s", got, golden)
	}
}

func TestObserveSince(t *testing.T) {
	var h Histogram
	ObserveSince(&h, time.Now().Add(-5*time.Millisecond))
	if h.Count() != 1 {
		t.Fatal("ObserveSince did not record")
	}
	if h.Mean() < 4*time.Millisecond {
		t.Fatalf("observed %v, want >= ~5ms", h.Mean())
	}
	ObserveSince(nil, time.Now()) // must not panic
}

// TestOnSnapshotRunsBeforeEveryRead: a collector publishes a level its
// owner keeps elsewhere, and both snapshot paths see the value it set on
// that very call.
func TestOnSnapshotRunsBeforeEveryRead(t *testing.T) {
	reg := NewRegistry()
	level := int64(7)
	g := reg.Gauge("pool.bytes")
	reg.OnSnapshot(func() { g.Set(level) })
	if got := reg.Snapshot().Gauges["pool.bytes"].Value; got != 7 {
		t.Fatalf("Snapshot read %d before the collector ran, want 7", got)
	}
	level = 3
	var s RegistrySnapshot
	reg.SnapshotInto(&s)
	if got := s.Gauges["pool.bytes"]; got.Value != 3 || got.Max != 7 {
		t.Fatalf("SnapshotInto read %+v, want level 3 with high-water 7", got)
	}
	var none *Registry
	none.OnSnapshot(func() { t.Error("a nil registry ran a collector") })
	none.Snapshot()
}
