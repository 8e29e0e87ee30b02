// Package tune closes the observe→decide→act loop over the I/O stack's
// live knobs. Every hot-path setting the store exposes — decode worker
// count, batched-fetch size, the staged-bytes admission budget,
// fidelity level — has a best value that depends on where the cluster's
// bottleneck actually is (CPU-bound decode vs network-bound fetch, per
// the regime split in "Predictive Modeling of I/O Performance for ML
// Training Pipelines"), and a static mount-time default is wrong for at
// least one regime. The Controller samples an obs.Sampler window each
// interval, classifies the bottleneck from windowed p99s and rates,
// and hill-climbs exactly one knob per step with a guarded revert: the
// move is kept only if the objective (files/s, tie-broken by windowed
// p99 open latency) improves beyond a noise band measured from the
// recent idle windows.
//
// Design rules, in the repo's discipline:
//
//   - One move in flight at a time — a settle window absorbs the
//     transient, a measure window scores it, then keep or revert.
//   - Reverted (knob, direction) pairs cool down with escalating
//     backoff (doubling, reset by any kept move), so a controller
//     pinned at its optimum probes asymptotically rarely instead of
//     oscillating.
//   - The steady-state tick is allocation-free: it reads single
//     instruments through Sampler.Rate/WindowSnapshot and fixed rings,
//     never the map-building query surfaces.
package tune

import (
	"fmt"
	"sync"
	"time"

	"fanstore/internal/metrics"
	"fanstore/internal/obs"
)

// Knob is one live-adjustable setting the controller may move. Get and
// Set must be safe for concurrent use (the target reads them through
// atomics); Up and Down propose the next value in each direction and
// return the current value unchanged when the knob is at that bound.
type Knob struct {
	// Name keys the knob's gauge ("tune.knob.<Name>") and the verdict
	// routing (Options.DecodeKnob etc).
	Name string
	Get  func() int64
	Set  func(int64)
	Up   func(cur int64) int64
	Down func(cur int64) int64
}

// StepKnob builds the common geometric knob: Up doubles, Down halves,
// both clamped to [lo, hi]. Geometric steps suit throughput knobs —
// they cross a wide range in few probes and the guarded revert pays
// for any overshoot with exactly one bad window.
func StepKnob(name string, lo, hi int64, get func() int64, set func(int64)) Knob {
	clamp := func(v int64) int64 {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	return Knob{
		Name: name,
		Get:  get,
		Set:  set,
		Up:   func(cur int64) int64 { return clamp(cur * 2) },
		Down: func(cur int64) int64 { return clamp(cur / 2) },
	}
}

// Verdict is the controller's per-tick bottleneck classification.
type Verdict uint8

const (
	// Balanced: no signal cleared its floor; the controller holds.
	Balanced Verdict = iota
	// DecodeBound: decode queue wait dominates — decompression cannot
	// keep up with fetch.
	DecodeBound
	// FetchBound: remote fetch latency dominates — the fabric or batch
	// shape is the limiter.
	FetchBound
	// AdmissionBound: batches are parked on the staged-bytes budget
	// faster than anything else is hurting.
	AdmissionBound
)

var verdictNames = [...]string{
	Balanced: "balanced", DecodeBound: "decode-bound",
	FetchBound: "fetch-bound", AdmissionBound: "admission-bound",
}

func (v Verdict) String() string {
	if int(v) < len(verdictNames) {
		return verdictNames[v]
	}
	return fmt.Sprintf("verdict(%d)", uint8(v))
}

// Signals names the registry instruments the classifier reads. Zero
// fields take the fanstore defaults.
type Signals struct {
	// DecodeWait is the decode-queue wait histogram
	// (default "decomp.queue.wait.latency").
	DecodeWait string
	// FetchLatency is the remote-fetch round-trip histogram
	// (default "fanstore.fetch.latency").
	FetchLatency string
	// AdmissionWaits is the counter of batches parked on admission
	// (default "prefetch.plan.admission.waits").
	AdmissionWaits string
}

// Options configures a Controller.
type Options struct {
	// Registry is the instrument source the controller samples AND the
	// sink its own tune.* instruments register in. Required.
	Registry *metrics.Registry
	// Interval is the sample-and-decide period (default 1s).
	Interval time.Duration
	// Windows is the controller sampler's ring size (default 8 — the
	// controller only folds the last window plus a short baseline, and
	// a small ring reaches its allocation-free steady state sooner).
	Windows int
	// Knobs are the settings the controller may move. Required (an
	// empty set makes every tick a no-op).
	Knobs []Knob
	// ObjectiveCounters are summed into the objective rate, files/s.
	// Default: the observation count of ObjectiveLatency — every open,
	// cache hit or miss. (The producers' counters, opens.local +
	// opens.remote, count misses only: on a warm cache they rate nothing,
	// and a move that makes staging fall behind scores as a gain.)
	ObjectiveCounters []string
	// ObjectiveLatency is the histogram whose windowed p99 breaks
	// objective ties — flat throughput with a better tail still keeps
	// a move (default "fanstore.open.latency").
	ObjectiveLatency string
	// Signals are the classifier inputs.
	Signals Signals
	// DecodeKnob, FetchKnob, AdmissionKnob route each verdict to a knob
	// by name (defaults "decode.workers", "batch.items",
	// "admission.bytes"). A verdict whose knob is absent holds.
	DecodeKnob, FetchKnob, AdmissionKnob string
	// MinLatency is the classification floor: a p99 below it never
	// names a bottleneck (default 200µs).
	MinLatency time.Duration
	// MinWaitRate is the admission-bound floor in waits/s (default 0.1).
	MinWaitRate float64
	// BaselineTicks is how many idle windows feed the pre-move baseline
	// and its noise band (default 2).
	BaselineTicks int
	// SettleTicks is how many windows are discarded after a move before
	// measuring, absorbing the transient (default 1).
	SettleTicks int
	// MeasureTicks is how many windows are averaged to score a move
	// (default 1).
	MeasureTicks int
	// NoiseFloor is the minimum relative improvement a move must show
	// even when the measured noise band is tighter (default 0.02).
	NoiseFloor float64
	// Cooldown is the initial per-(knob, direction) backoff after a
	// revert, in ticks; it doubles on consecutive reverts of the same
	// pair and resets on any kept move (default 4).
	Cooldown int
	// Events receives tune-move / tune-revert entries (nil: no events).
	Events *obs.EventLog
}

// controller decision states.
const (
	stIdle = iota
	stSettling
	stMeasuring
)

// Controller is the online autotuner. Drive it with Start (periodic)
// or Tick (manual, deterministic — the trainsim ablations feed it
// simulated clocks).
type Controller struct {
	o       Options
	sampler *obs.Sampler
	events  *obs.EventLog

	knobGauges []*metrics.Gauge
	ticksC     *metrics.Counter
	movesC     *metrics.Counter
	revertsC   *metrics.Counter
	objG       *metrics.Gauge // objective in milli-units/s (int gauge)
	verdictG   *metrics.Gauge

	mu    sync.Mutex
	state int
	// baseline ring of recent idle (objective, p99 seconds) pairs.
	base  []sample
	baseN int
	baseI int
	// the move in flight.
	pKnob               int
	pDir                int // +1 up, -1 down
	pOld, pNew          int64
	pBase, pBaseP99     float64
	pBand               float64
	settleLeft          int
	measured            int
	mObjSum, mP99Sum    float64
	cool                [][2]int // remaining cooldown ticks per knob, per direction
	coolLen             [][2]int // current ladder length (escalates on reverts)
	pref                []int    // per-knob momentum: the last kept direction
	lastVerdict         Verdict
	lastObj, lastObjP99 float64

	stop chan struct{}
	done chan struct{}
}

type sample struct{ obj, p99 float64 }

// New builds a controller. It registers its tune.* instruments and
// primes nothing; the first Tick (or Start's first firing) only seeds
// the sampler baseline.
func New(o Options) *Controller {
	if o.Interval <= 0 {
		o.Interval = time.Second
	}
	if o.Windows <= 0 {
		o.Windows = 8
	}
	if o.ObjectiveLatency == "" {
		o.ObjectiveLatency = "fanstore.open.latency"
	}
	if len(o.ObjectiveCounters) == 0 {
		o.ObjectiveCounters = []string{o.ObjectiveLatency}
	}
	if o.Signals.DecodeWait == "" {
		o.Signals.DecodeWait = "decomp.queue.wait.latency"
	}
	if o.Signals.FetchLatency == "" {
		o.Signals.FetchLatency = "fanstore.fetch.latency"
	}
	if o.Signals.AdmissionWaits == "" {
		o.Signals.AdmissionWaits = "prefetch.plan.admission.waits"
	}
	if o.DecodeKnob == "" {
		o.DecodeKnob = "decode.workers"
	}
	if o.FetchKnob == "" {
		o.FetchKnob = "batch.items"
	}
	if o.AdmissionKnob == "" {
		o.AdmissionKnob = "admission.bytes"
	}
	if o.MinLatency <= 0 {
		o.MinLatency = 200 * time.Microsecond
	}
	if o.MinWaitRate <= 0 {
		o.MinWaitRate = 0.1
	}
	if o.BaselineTicks <= 0 {
		o.BaselineTicks = 2
	}
	if o.SettleTicks < 0 {
		o.SettleTicks = 0
	} else if o.SettleTicks == 0 {
		o.SettleTicks = 1
	}
	if o.MeasureTicks <= 0 {
		o.MeasureTicks = 1
	}
	if o.NoiseFloor <= 0 {
		o.NoiseFloor = 0.02
	}
	if o.Cooldown <= 0 {
		o.Cooldown = 4
	}
	c := &Controller{
		o: o,
		sampler: obs.NewSampler(o.Registry, obs.SamplerOptions{
			Interval: o.Interval,
			Windows:  o.Windows,
		}),
		events:     o.Events,
		knobGauges: make([]*metrics.Gauge, len(o.Knobs)),
		ticksC:     o.Registry.Counter("tune.ticks"),
		movesC:     o.Registry.Counter("tune.moves"),
		revertsC:   o.Registry.Counter("tune.reverts"),
		objG:       o.Registry.Gauge("tune.objective"),
		verdictG:   o.Registry.Gauge("tune.verdict"),
		base:       make([]sample, o.BaselineTicks),
		cool:       make([][2]int, len(o.Knobs)),
		coolLen:    make([][2]int, len(o.Knobs)),
		pref:       make([]int, len(o.Knobs)),
	}
	for i, k := range o.Knobs {
		c.knobGauges[i] = o.Registry.Gauge("tune.knob." + k.Name)
		c.knobGauges[i].Set(k.Get())
		c.coolLen[i] = [2]int{o.Cooldown, o.Cooldown}
		c.pref[i] = +1
	}
	return c
}

// Start launches the periodic tick goroutine. Start after Start is a
// no-op until Stop.
func (c *Controller) Start() {
	c.mu.Lock()
	if c.stop != nil {
		c.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	c.stop, c.done = stop, done
	c.mu.Unlock()
	go func() {
		defer close(done)
		tick := time.NewTicker(c.o.Interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case now := <-tick.C:
				c.Tick(now)
			}
		}
	}()
}

// Stop halts the tick goroutine (knobs keep their last values) and
// waits for it to exit. Nil-safe.
func (c *Controller) Stop() {
	if c == nil {
		return
	}
	c.mu.Lock()
	stop, done := c.stop, c.done
	c.stop, c.done = nil, nil
	c.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// Tick runs one observe→decide→act step at the given wall-clock time.
// The first call only primes the sampler baseline. Safe for concurrent
// use; the steady state (no move taken) allocates nothing once the
// sampler ring has wrapped.
func (c *Controller) Tick(now time.Time) {
	c.sampler.Sample(now)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ticksC.Inc()
	for i := range c.o.Knobs {
		c.knobGauges[i].Set(c.o.Knobs[i].Get())
	}
	if c.sampler.Retained() == 0 {
		return // priming tick: no window to read yet
	}
	// Fold only the freshest window: half the interval as lookback
	// excludes the window before it even under scheduling jitter.
	look := c.o.Interval / 2
	obj := c.objective(look)
	p99 := c.windowP99(c.o.ObjectiveLatency, look)
	c.lastObj, c.lastObjP99 = obj, p99
	c.objG.Set(int64(obj * 1000))
	verdict := c.classify(look)
	c.lastVerdict = verdict
	c.verdictG.Set(int64(verdict))
	for i := range c.cool {
		for d := 0; d < 2; d++ {
			if c.cool[i][d] > 0 {
				c.cool[i][d]--
			}
		}
	}
	switch c.state {
	case stIdle:
		c.pushBase(obj, p99)
		if c.baseN < c.o.BaselineTicks {
			return
		}
		ki := c.route(verdict)
		if ki < 0 {
			return
		}
		cur := c.o.Knobs[ki].Get()
		// Preferred direction is the knob's momentum — up initially
		// (the direct response to the named bottleneck), then whatever
		// direction last kept. A direction that is cooling down or at
		// its bound falls through to the other one — that fallback is
		// what walks a knob DOWN from an over-provisioned mis-tune
		// without wasting a probe back up after every kept step.
		dir, next := 0, cur
		for _, d := range [2]int{c.pref[ki], -c.pref[ki]} {
			if c.cool[ki][dirIndex(d)] > 0 {
				continue
			}
			if d > 0 {
				next = c.o.Knobs[ki].Up(cur)
			} else {
				next = c.o.Knobs[ki].Down(cur)
			}
			if next != cur {
				dir = d
				break
			}
		}
		if dir == 0 {
			return // both directions cooling or at a bound: hold
		}
		c.pKnob, c.pDir, c.pOld, c.pNew = ki, dir, cur, next
		c.pBase, c.pBaseP99 = c.baseMean()
		c.pBand = c.noiseBand()
		c.o.Knobs[ki].Set(next)
		c.knobGauges[ki].Set(next)
		c.movesC.Inc()
		if c.events.Enabled() {
			c.events.Emitf(obs.EvTuneMove, obs.SevInfo,
				"%s %d -> %d (%s, objective %.1f/s p99 %.2fms)",
				c.o.Knobs[ki].Name, cur, next, verdict, c.pBase, c.pBaseP99*1e3)
		}
		c.state = stSettling
		c.settleLeft = c.o.SettleTicks
	case stSettling:
		if c.settleLeft--; c.settleLeft <= 0 {
			c.state = stMeasuring
			c.measured, c.mObjSum, c.mP99Sum = 0, 0, 0
		}
	case stMeasuring:
		c.mObjSum += obj
		c.mP99Sum += p99
		if c.measured++; c.measured < c.o.MeasureTicks {
			return
		}
		cand := c.mObjSum / float64(c.measured)
		candP99 := c.mP99Sum / float64(c.measured)
		keep := cand > c.pBase*(1+c.pBand)
		if !keep && cand >= c.pBase*(1-c.pBand) &&
			c.pBaseP99 > 0 && candP99 < c.pBaseP99*(1-c.pBand) {
			keep = true // throughput flat but the tail improved
		}
		d := dirIndex(c.pDir)
		if keep {
			// A kept move resets this direction's escalation ladder
			// (the landscape moved, old reverts no longer predict) and
			// becomes the knob's preferred direction.
			c.coolLen[c.pKnob][d] = c.o.Cooldown
			c.pref[c.pKnob] = c.pDir
		} else {
			c.o.Knobs[c.pKnob].Set(c.pOld)
			c.knobGauges[c.pKnob].Set(c.pOld)
			c.revertsC.Inc()
			c.cool[c.pKnob][d] = c.coolLen[c.pKnob][d]
			if c.coolLen[c.pKnob][d] < 1<<16 {
				c.coolLen[c.pKnob][d] *= 2
			}
			if c.events.Enabled() {
				c.events.Emitf(obs.EvTuneRevert, obs.SevInfo,
					"%s %d -> %d reverted (%.1f/s vs baseline %.1f/s, band %.1f%%)",
					c.o.Knobs[c.pKnob].Name, c.pOld, c.pNew, cand, c.pBase, c.pBand*100)
			}
		}
		c.resetBase()
		c.state = stIdle
	}
}

// route maps the verdict to the index of its configured knob (-1: no
// such knob, or balanced — the controller holds).
func (c *Controller) route(v Verdict) int {
	var name string
	switch v {
	case DecodeBound:
		name = c.o.DecodeKnob
	case FetchBound:
		name = c.o.FetchKnob
	case AdmissionBound:
		name = c.o.AdmissionKnob
	default:
		return -1
	}
	for i := range c.o.Knobs {
		if c.o.Knobs[i].Name == name {
			return i
		}
	}
	return -1
}

func dirIndex(dir int) int {
	if dir > 0 {
		return 1
	}
	return 0
}

// classify names the bottleneck from the freshest window. Decode wait
// wins ties with fetch latency: a saturated decode queue also inflates
// fetch-side measurements, not the other way around.
func (c *Controller) classify(look time.Duration) Verdict {
	dec, _ := c.sampler.WindowSnapshot(c.o.Signals.DecodeWait, look)
	fet, _ := c.sampler.WindowSnapshot(c.o.Signals.FetchLatency, look)
	floor := c.o.MinLatency
	switch {
	case dec.Count > 0 && dec.P99 >= floor && dec.P99 >= fet.P99:
		return DecodeBound
	case fet.Count > 0 && fet.P99 >= floor:
		return FetchBound
	}
	if waits, ok := c.sampler.Rate(c.o.Signals.AdmissionWaits, look); ok && waits > c.o.MinWaitRate {
		return AdmissionBound
	}
	return Balanced
}

// objective is the summed per-second rate of the objective counters
// over the lookback (a histogram's name rates its observations).
func (c *Controller) objective(look time.Duration) float64 {
	var sum float64
	for _, name := range c.o.ObjectiveCounters {
		if r, ok := c.sampler.Rate(name, look); ok {
			sum += r
		}
	}
	return sum
}

// windowP99 is the named histogram's windowed p99 in seconds.
func (c *Controller) windowP99(hist string, look time.Duration) float64 {
	s, ok := c.sampler.WindowSnapshot(hist, look)
	if !ok || s.Count == 0 {
		return 0
	}
	return s.P99.Seconds()
}

// pushBase records one idle window into the fixed baseline ring.
func (c *Controller) pushBase(obj, p99 float64) {
	c.base[c.baseI] = sample{obj, p99}
	if c.baseI++; c.baseI == len(c.base) {
		c.baseI = 0
	}
	if c.baseN < len(c.base) {
		c.baseN++
	}
}

func (c *Controller) resetBase() { c.baseN, c.baseI = 0, 0 }

// baseMean averages the retained baseline samples.
func (c *Controller) baseMean() (obj, p99 float64) {
	for i := 0; i < c.baseN; i++ {
		obj += c.base[i].obj
		p99 += c.base[i].p99
	}
	n := float64(c.baseN)
	return obj / n, p99 / n
}

// noiseBand is the relative half-spread of the baseline objectives,
// floored at NoiseFloor: a move must beat what idle variation already
// produces.
func (c *Controller) noiseBand() float64 {
	lo, hi := c.base[0].obj, c.base[0].obj
	var sum float64
	for i := 0; i < c.baseN; i++ {
		v := c.base[i].obj
		sum += v
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	mean := sum / float64(c.baseN)
	if mean <= 0 {
		return c.o.NoiseFloor
	}
	band := (hi - lo) / mean / 2
	if band < c.o.NoiseFloor {
		band = c.o.NoiseFloor
	}
	return band
}

// Verdict returns the latest bottleneck classification.
func (c *Controller) Verdict() Verdict {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastVerdict
}

// Objective returns the latest objective rate (units/s).
func (c *Controller) Objective() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastObj
}

// Moves reports the cumulative count of knob moves kept.
func (c *Controller) Moves() int64 { return c.movesC.Value() }

// Reverts reports the cumulative count of knob moves rolled back.
func (c *Controller) Reverts() int64 { return c.revertsC.Value() }

// Sampler exposes the controller's private sampler (its windows are
// the decision record /series cannot see, since the ops-plane sampler
// is a different instance).
func (c *Controller) Sampler() *obs.Sampler { return c.sampler }

// WriteStatus renders the controller section of /statusz: verdict,
// decision counts, objective, and every knob's live value.
func (c *Controller) WriteStatus(sw *obs.StatusWriter) {
	c.mu.Lock()
	verdict, obj := c.lastVerdict, c.lastObj
	c.mu.Unlock()
	sw.Section("tune")
	sw.KV("verdict", verdict)
	sw.KV("objective.rate", fmt.Sprintf("%.1f/s", obj))
	sw.KV("moves", c.movesC.Value())
	sw.KV("reverts", c.revertsC.Value())
	for i := range c.o.Knobs {
		sw.KV("knob."+c.o.Knobs[i].Name, c.o.Knobs[i].Get())
	}
}
