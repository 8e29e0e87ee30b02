package tune

import (
	"testing"
	"time"

	"fanstore/internal/metrics"
	"fanstore/internal/obs"
)

// simSystem is a synthetic tunable workload: each step emits one
// second's worth of signals into the registry, with the throughput and
// bottleneck signals computed from the current knob value. The
// controller sees exactly what a real rank would — counter rates and
// windowed p99s — with zero timing flakiness.
type simSystem struct {
	reg     *metrics.Registry
	iters   *metrics.Counter
	iterLat *metrics.Histogram
	decWait *metrics.Histogram
	fetch   *metrics.Histogram
	waits   *metrics.Counter
	knob    int64
	now     time.Time

	// rate maps the knob value to iterations/s; decode maps it to the
	// emitted decode-wait p99 (zero: stay silent).
	rate   func(v int64) int64
	decode func(v int64) time.Duration
}

func newSimSystem(rate func(int64) int64, decode func(int64) time.Duration) *simSystem {
	reg := metrics.NewRegistry()
	return &simSystem{
		reg:     reg,
		iters:   reg.Counter("sim.iters"),
		iterLat: reg.Histogram("sim.iter.latency"),
		decWait: reg.Histogram("decomp.queue.wait.latency"),
		fetch:   reg.Histogram("fanstore.fetch.latency"),
		waits:   reg.Counter("prefetch.plan.admission.waits"),
		rate:    rate,
		decode:  decode,
		now:     time.Unix(1000, 0),
	}
}

func (s *simSystem) options(knobs []Knob) Options {
	return Options{
		Registry:          s.reg,
		Interval:          time.Second,
		Knobs:             knobs,
		ObjectiveCounters: []string{"sim.iters"},
		ObjectiveLatency:  "sim.iter.latency",
	}
}

// step emits one second of activity at the current knob value and
// ticks the controller.
func (s *simSystem) step(c *Controller) {
	s.iters.Add(s.rate(s.knob))
	s.iterLat.Observe(time.Millisecond)
	if d := s.decode(s.knob); d > 0 {
		for i := 0; i < 4; i++ {
			s.decWait.Observe(d)
		}
	}
	s.now = s.now.Add(time.Second)
	c.Tick(s.now)
}

func (s *simSystem) knobDef(lo, hi int64) Knob {
	return StepKnob("decode.workers", lo, hi,
		func() int64 { return s.knob },
		func(v int64) { s.knob = v })
}

// TestClimbsUpToOptimum starts under-provisioned (knob 1, optimum 8):
// throughput scales with the knob until 8 and flattens after, with a
// persistent decode-bound signal. The controller must climb to exactly
// 8 and hold there, with reverts bounded by the escalating cooldown.
func TestClimbsUpToOptimum(t *testing.T) {
	sys := newSimSystem(
		func(v int64) int64 {
			if v > 8 {
				v = 8
			}
			return 100 * v
		},
		func(int64) time.Duration { return 10 * time.Millisecond },
	)
	sys.knob = 1
	c := New(sys.options([]Knob{sys.knobDef(1, 64)}))
	atOpt := 0
	for i := 0; i < 60; i++ {
		sys.step(c)
		if i >= 30 && sys.knob == 8 {
			atOpt++
		}
	}
	if atOpt < 20 {
		t.Fatalf("knob rested at 8 only %d of the last 30 ticks (now %d)", atOpt, sys.knob)
	}
	if c.Moves() < 3 {
		t.Fatalf("moves=%d, want >=3 (1->2->4->8)", c.Moves())
	}
	if c.Reverts() > 8 {
		t.Fatalf("reverts=%d over 60 ticks — cooldown not escalating", c.Reverts())
	}
	if v := c.Verdict(); v != DecodeBound {
		t.Fatalf("verdict=%v, want decode-bound", v)
	}
	if c.Objective() != 800 {
		t.Fatalf("objective=%v, want 800/s", c.Objective())
	}
}

// TestClimbsDownFromOverProvisioned starts at the knob ceiling where
// extra workers actively hurt (contention model): up is at its bound,
// so the direction fallback must walk the knob down to the peak.
func TestClimbsDownFromOverProvisioned(t *testing.T) {
	sys := newSimSystem(
		func(v int64) int64 {
			r := int64(800)
			if v > 8 {
				r = 800 - 12*(v-8)
			} else if v < 8 {
				r = 100 * v
			}
			if r < 50 {
				r = 50
			}
			return r
		},
		func(int64) time.Duration { return 10 * time.Millisecond },
	)
	sys.knob = 64
	c := New(sys.options([]Knob{sys.knobDef(1, 64)}))
	atOpt := 0
	for i := 0; i < 80; i++ {
		sys.step(c)
		if i >= 50 && sys.knob == 8 {
			atOpt++
		}
	}
	if atOpt < 24 {
		t.Fatalf("knob rested at 8 only %d of the last 30 ticks (now %d, moves=%d reverts=%d)",
			atOpt, sys.knob, c.Moves(), c.Reverts())
	}
	if c.Reverts() > 10 {
		t.Fatalf("reverts=%d over 80 ticks — oscillating", c.Reverts())
	}
}

// TestBalancedHolds: with every signal below its floor the verdict is
// balanced and the controller must make zero moves.
func TestBalancedHolds(t *testing.T) {
	sys := newSimSystem(
		func(int64) int64 { return 500 },
		func(int64) time.Duration { return 0 }, // silent decode signal
	)
	sys.knob = 4
	c := New(sys.options([]Knob{sys.knobDef(1, 64)}))
	for i := 0; i < 30; i++ {
		sys.step(c)
	}
	if c.Moves() != 0 || c.Reverts() != 0 {
		t.Fatalf("balanced profile moved: moves=%d reverts=%d", c.Moves(), c.Reverts())
	}
	if sys.knob != 4 {
		t.Fatalf("knob drifted to %d on a balanced profile", sys.knob)
	}
	if v := c.Verdict(); v != Balanced {
		t.Fatalf("verdict=%v, want balanced", v)
	}
}

// TestAdmissionBoundMovesAdmissionKnob: a steady admission-wait rate
// with silent latency signals must classify admission-bound and grow
// the admission knob, emitting tune-move events.
func TestAdmissionBoundMovesAdmissionKnob(t *testing.T) {
	sys := newSimSystem(
		func(int64) int64 { return 0 },
		func(int64) time.Duration { return 0 },
	)
	var budget int64 = 1 << 20
	knob := StepKnob("admission.bytes", 1<<20, 1<<30,
		func() int64 { return budget },
		func(v int64) { budget = v })
	ev := obs.NewEventLog(0, 64)
	o := sys.options([]Knob{knob})
	o.ObjectiveCounters = []string{"sim.iters"}
	o.Events = ev
	c := New(o)
	for i := 0; i < 10; i++ {
		sys.waits.Inc() // 1 wait/s, over the 0.1/s floor
		// Throughput grows with the budget so the moves keep sticking.
		sys.iters.Add(budget >> 18)
		sys.iterLat.Observe(time.Millisecond)
		sys.now = sys.now.Add(time.Second)
		c.Tick(sys.now)
	}
	if v := c.Verdict(); v != AdmissionBound {
		t.Fatalf("verdict=%v, want admission-bound", v)
	}
	if budget <= 1<<20 {
		t.Fatalf("admission knob never grew (still %d)", budget)
	}
	var sawMove bool
	for _, e := range ev.Events() {
		if e.Kind == obs.EvTuneMove {
			sawMove = true
		}
	}
	if !sawMove {
		t.Fatal("no tune-move event emitted")
	}
}

// TestRevertRestoresKnobAndEmits: when every move hurts, the knob must
// come back to its starting value and the revert must hit the event
// log and the tune.reverts counter.
func TestRevertRestoresKnobAndEmits(t *testing.T) {
	sys := newSimSystem(
		func(v int64) int64 {
			if v == 4 {
				return 1000
			}
			return 200 // any move away from 4 craters throughput
		},
		func(int64) time.Duration { return 10 * time.Millisecond },
	)
	sys.knob = 4
	ev := obs.NewEventLog(0, 64)
	o := sys.options([]Knob{sys.knobDef(1, 64)})
	o.Events = ev
	c := New(o)
	for i := 0; i < 20; i++ {
		sys.step(c)
	}
	if sys.knob != 4 {
		t.Fatalf("knob=%d after only-bad-moves run, want 4 restored", sys.knob)
	}
	if c.Reverts() == 0 || c.Moves() != c.Reverts() {
		t.Fatalf("moves=%d reverts=%d, want every move reverted", c.Moves(), c.Reverts())
	}
	var sawRevert bool
	for _, e := range ev.Events() {
		if e.Kind == obs.EvTuneRevert {
			sawRevert = true
		}
	}
	if !sawRevert {
		t.Fatal("no tune-revert event emitted")
	}
}

// TestTieBreakOnLatency: flat throughput with a clearly better p99
// must still keep the move.
func TestTieBreakOnLatency(t *testing.T) {
	sys := newSimSystem(
		func(int64) int64 { return 500 },
		func(int64) time.Duration { return 10 * time.Millisecond },
	)
	sys.knob = 4
	c := New(sys.options([]Knob{sys.knobDef(1, 64)}))
	// Six ticks: prime, baseline x2, move, settle, measure+decide.
	for i := 0; i < 6; i++ {
		sys.iters.Add(500)
		// p99 improves once the knob has moved off 4.
		lat := 8 * time.Millisecond
		if sys.knob != 4 {
			lat = time.Millisecond
		}
		sys.iterLat.Observe(lat)
		for j := 0; j < 4; j++ {
			sys.decWait.Observe(10 * time.Millisecond)
		}
		sys.now = sys.now.Add(time.Second)
		c.Tick(sys.now)
	}
	if sys.knob != 8 {
		t.Fatalf("knob=%d, want 8 — latency tie-break did not keep the move", sys.knob)
	}
	if c.Moves() != 1 || c.Reverts() != 0 {
		t.Fatalf("moves=%d reverts=%d, want 1 kept move", c.Moves(), c.Reverts())
	}
}

// TestKnobGaugesTrackValues: the tune.knob.* gauges must follow the
// live knob values so /series and the cluster report can render the
// convergence trace.
func TestKnobGaugesTrackValues(t *testing.T) {
	sys := newSimSystem(
		func(v int64) int64 {
			if v > 8 {
				v = 8
			}
			return 100 * v
		},
		func(int64) time.Duration { return 10 * time.Millisecond },
	)
	sys.knob = 1
	c := New(sys.options([]Knob{sys.knobDef(1, 64)}))
	for i := 0; i < 30; i++ {
		sys.step(c)
	}
	snap := sys.reg.Snapshot()
	g, ok := snap.Gauges["tune.knob.decode.workers"]
	if !ok {
		t.Fatal("tune.knob.decode.workers gauge not registered")
	}
	if g.Value != sys.knob {
		t.Fatalf("knob gauge=%d, live knob=%d", g.Value, sys.knob)
	}
	if snap.Counters["tune.moves"] != c.Moves() {
		t.Fatal("tune.moves counter out of sync")
	}
	if og, ok := snap.Gauges["tune.objective"]; !ok || og.Value != int64(c.Objective()*1000) {
		t.Fatalf("tune.objective gauge=%v, want %v milli-units", og.Value, int64(c.Objective()*1000))
	}
}

// TestSteadyTickAllocs is the satellite AllocsPerRun gate: once the
// sampler ring has wrapped, a balanced steady-state tick (sample,
// classify, hold) must not allocate.
func TestSteadyTickAllocs(t *testing.T) {
	sys := newSimSystem(
		func(int64) int64 { return 500 },
		func(int64) time.Duration { return 0 },
	)
	sys.knob = 4
	c := New(sys.options([]Knob{sys.knobDef(1, 64)}))
	// Warm past the sampler ring (Windows default 8) so every slot's
	// delta maps exist.
	for i := 0; i < 24; i++ {
		sys.step(c)
	}
	allocs := testing.AllocsPerRun(100, func() {
		sys.iters.Add(500)
		sys.iterLat.Observe(time.Millisecond)
		sys.now = sys.now.Add(time.Second)
		c.Tick(sys.now)
	})
	if allocs > 0 {
		t.Fatalf("steady-state tick allocates %.1f times per run, want 0", allocs)
	}
}

// TestStartStop drives the periodic path briefly — mostly a leak/race
// smoke for the ticker goroutine.
func TestStartStop(t *testing.T) {
	sys := newSimSystem(
		func(int64) int64 { return 100 },
		func(int64) time.Duration { return 0 },
	)
	o := sys.options([]Knob{sys.knobDef(1, 64)})
	o.Interval = time.Millisecond
	c := New(o)
	c.Start()
	c.Start() // idempotent
	time.Sleep(20 * time.Millisecond)
	c.Stop()
	c.Stop() // idempotent
	var nilC *Controller
	nilC.Stop() // nil-safe
}

// TestDefaultObjectiveCountsEveryOpen: on a warm cache every open is a
// hit, so the producers' counters (opens.local, opens.remote) stand
// still and only the open histogram moves. The default objective must
// rate those opens — it read 0 while it summed the two miss counters,
// and the controller steered on a rate of nothing.
func TestDefaultObjectiveCountsEveryOpen(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("fanstore.opens.local")
	reg.Counter("fanstore.opens.remote")
	opens := reg.Histogram("fanstore.open.latency")
	c := New(Options{Registry: reg, Interval: time.Second})
	now := time.Unix(1000, 0)
	c.Tick(now) // primes the sampler
	for i := 0; i < 250; i++ {
		opens.Observe(20 * time.Microsecond)
	}
	c.Tick(now.Add(time.Second))
	if got := c.Objective(); got != 250 {
		t.Fatalf("objective = %v/s after 250 cache-hit opens in one second, want 250", got)
	}
}
