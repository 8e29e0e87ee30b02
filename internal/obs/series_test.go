package obs

import (
	"runtime"
	"testing"
	"time"

	"fanstore/internal/metrics"
)

// sampleClock hands out deterministic wall-clock times one interval
// apart, so tests can drive Sample without sleeping.
type sampleClock struct {
	now  time.Time
	step time.Duration
}

func newSampleClock(step time.Duration) *sampleClock {
	return &sampleClock{now: time.Unix(1000, 0), step: step}
}

func (c *sampleClock) tick() time.Time {
	c.now = c.now.Add(c.step)
	return c.now
}

func TestSamplerPrimingAndRates(t *testing.T) {
	reg := metrics.NewRegistry()
	reads := reg.Counter("reads")
	s := NewSampler(reg, SamplerOptions{Interval: time.Second, Windows: 8})
	clk := newSampleClock(time.Second)

	// First sample only primes the baseline — no window yet.
	reads.Add(100)
	s.Sample(clk.tick())
	if s.Retained() != 0 {
		t.Fatalf("Retained after priming = %d, want 0", s.Retained())
	}

	// 50 increments over one 1s window → 50/s.
	reads.Add(50)
	s.Sample(clk.tick())
	if s.Retained() != 1 {
		t.Fatalf("Retained = %d, want 1", s.Retained())
	}
	if rate, ok := s.Rates(0)["reads"]; !ok || rate != 50 {
		t.Errorf("Rates()[reads] = %v/%v, want 50/true", rate, ok)
	}

	// A second idle window halves the all-history rate.
	s.Sample(clk.tick())
	if rate, ok := s.Rates(0)["reads"]; !ok || rate != 25 {
		t.Errorf("Rates()[reads] over 2 windows = %v/%v, want 25/true", rate, ok)
	}

	// A short lookback sees only the idle window (the counter is still
	// covered — deltas keep zero-valued entries).
	if rate, ok := s.Rates(500 * time.Millisecond)["reads"]; !ok || rate != 0 {
		t.Errorf("Rates()[reads] over last window = %v/%v, want 0/true", rate, ok)
	}

	if _, ok := s.Rates(0)["no-such-counter"]; ok {
		t.Error("Rates found a counter that was never registered")
	}
}

func TestSamplerRingRetention(t *testing.T) {
	reg := metrics.NewRegistry()
	c := reg.Counter("n")
	s := NewSampler(reg, SamplerOptions{Interval: time.Second, Windows: 4})
	clk := newSampleClock(time.Second)

	s.Sample(clk.tick()) // prime
	for i := 0; i < 10; i++ {
		c.Add(int64(i + 1)) // window i carries delta i+1
		s.Sample(clk.tick())
	}
	if s.Retained() != 4 {
		t.Fatalf("Retained = %d, want ring cap 4", s.Retained())
	}
	ws := s.Windows(0)
	if len(ws) != 4 {
		t.Fatalf("Windows = %d, want 4", len(ws))
	}
	// Oldest-first: the surviving deltas are 7, 8, 9, 10.
	for i, w := range ws {
		if got := w.Delta.Counters["n"]; got != int64(7+i) {
			t.Errorf("window %d delta = %d, want %d", i, got, 7+i)
		}
		if i > 0 && ws[i-1].End.After(w.Start) {
			t.Errorf("windows out of order: %v then %v", ws[i-1].End, w.Start)
		}
	}
}

func TestSamplerWindowsAreDeepCopies(t *testing.T) {
	reg := metrics.NewRegistry()
	c := reg.Counter("n")
	s := NewSampler(reg, SamplerOptions{Windows: 2})
	clk := newSampleClock(time.Second)
	s.Sample(clk.tick())
	c.Add(5)
	s.Sample(clk.tick())

	ws := s.Windows(0)
	before := ws[0].Delta.Counters["n"]
	// Keep sampling until the slot the copy came from is overwritten.
	for i := 0; i < 4; i++ {
		c.Add(100)
		s.Sample(clk.tick())
	}
	if ws[0].Delta.Counters["n"] != before {
		t.Errorf("Windows copy mutated by later sampling: %d -> %d", before, ws[0].Delta.Counters["n"])
	}
}

func TestSamplerLevelsAndQuantiles(t *testing.T) {
	reg := metrics.NewRegistry()
	g := reg.Gauge("depth")
	h := reg.Histogram("lat")
	s := NewSampler(reg, SamplerOptions{Windows: 8})
	clk := newSampleClock(time.Second)

	g.Set(3)
	s.Sample(clk.tick()) // prime
	g.Set(7)
	for i := 0; i < 100; i++ {
		h.Observe(time.Millisecond)
	}
	s.Sample(clk.tick())

	lv := s.Levels()
	if lv["depth"].Value != 7 {
		t.Errorf("Levels depth = %+v, want value 7", lv["depth"])
	}

	q := s.WindowQuantiles(0)
	snap, ok := q["lat"]
	if !ok {
		t.Fatal("WindowQuantiles missing lat")
	}
	if snap.Count != 100 {
		t.Errorf("windowed count = %d, want 100", snap.Count)
	}

	// A second window with slower observations shifts the windowed view
	// while the first window's view stays reachable via lookback math.
	for i := 0; i < 100; i++ {
		h.Observe(100 * time.Millisecond)
	}
	s.Sample(clk.tick())
	q = s.WindowQuantiles(0)
	if q["lat"].Count != 200 {
		t.Errorf("merged windowed count = %d, want 200", q["lat"].Count)
	}
}

func TestSamplerStartStopGoroutines(t *testing.T) {
	reg := metrics.NewRegistry()
	s := NewSampler(reg, SamplerOptions{Interval: time.Millisecond})

	before := runtime.NumGoroutine()
	s.Start()
	s.Start() // idempotent
	// Let it take at least one real sample.
	deadline := time.Now().Add(2 * time.Second)
	for s.Retained() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.Retained() == 0 {
		t.Error("started sampler never sampled")
	}
	s.Stop()
	s.Stop() // idempotent
	// The goroutine must be fully reclaimed after Stop.
	deadline = time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("goroutines after Stop = %d, want <= %d", got, before)
	}
}

// TestSamplerSteadyStateZeroAlloc is the disabled-path/steady-state
// discipline gate: once the ring is warm, Sample must not allocate —
// snapshots land in reused scratch and deltas in the ring slot's maps.
func TestSamplerSteadyStateZeroAlloc(t *testing.T) {
	reg := metrics.NewRegistry()
	c := reg.Counter("n")
	g := reg.Gauge("g")
	h := reg.Histogram("h")
	s := NewSampler(reg, SamplerOptions{Windows: 4})
	clk := newSampleClock(time.Second)

	// Warm up: prime, fill, and wrap the ring so every slot's maps exist.
	for i := 0; i < 8; i++ {
		c.Inc()
		g.Set(int64(i))
		h.Observe(time.Millisecond)
		s.Sample(clk.tick())
	}

	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		h.Observe(time.Millisecond)
		s.Sample(clk.tick())
	})
	if allocs != 0 {
		t.Errorf("steady-state Sample allocates %v times per run, want 0", allocs)
	}
}

// BenchmarkSamplerSample keeps the steady-state sample path visible in
// the benchsmoke sweep and hard-fails it if it ever starts allocating.
func BenchmarkSamplerSample(b *testing.B) {
	reg := metrics.NewRegistry()
	c := reg.Counter("n")
	h := reg.Histogram("h")
	s := NewSampler(reg, SamplerOptions{Windows: 16})
	clk := newSampleClock(time.Second)
	for i := 0; i < 32; i++ {
		c.Inc()
		h.Observe(time.Millisecond)
		s.Sample(clk.tick())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
		s.Sample(clk.tick())
	}
	b.StopTimer()
	if allocs := testing.AllocsPerRun(10, func() { s.Sample(clk.tick()) }); allocs != 0 {
		b.Fatalf("steady-state Sample allocates %v times per run, want 0", allocs)
	}
}
