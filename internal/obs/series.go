package obs

import (
	"sync"
	"time"

	"fanstore/internal/metrics"
)

// Window is one sampling interval's worth of activity: Delta holds
// exact counter increments, current gauge levels, and histogram
// sub-snapshots covering only the samples observed in [Start, End)
// (see metrics.RegistrySnapshot.Delta).
type Window struct {
	Start time.Time                `json:"start"`
	End   time.Time                `json:"end"`
	Delta metrics.RegistrySnapshot `json:"delta"`
}

// Seconds returns the window's covered duration in seconds (never
// zero, to keep rate division safe).
func (w Window) Seconds() float64 {
	d := w.End.Sub(w.Start).Seconds()
	if d <= 0 {
		return 1e-9
	}
	return d
}

// SamplerOptions configures a Sampler.
type SamplerOptions struct {
	// Interval is the sampling period (default 1s).
	Interval time.Duration
	// Windows is how many delta windows the ring retains (default 120
	// — two minutes of history at the default interval).
	Windows int
}

// DefaultSamplerInterval and DefaultSamplerWindows are the zero-value
// substitutes for SamplerOptions fields.
const (
	DefaultSamplerInterval = time.Second
	DefaultSamplerWindows  = 120
)

// Sampler turns a cumulative metrics.Registry into rolling time
// series: every Interval it snapshots the registry, subtracts the
// previous snapshot, and stores the difference in a fixed ring of
// Windows. Queries (Rates, WindowQuantiles, Windows) fold the retained
// ring; the cumulative registry itself is never reset.
//
// The steady-state sample path is allocation-free: snapshots land in
// two reused scratch RegistrySnapshots (SnapshotInto) and deltas are
// computed into the ring slot's reused maps (DeltaInto). Nothing runs
// until Start; Sample can also be driven manually for deterministic
// tests.
type Sampler struct {
	reg      *metrics.Registry
	interval time.Duration

	mu      sync.Mutex
	ring    []Window
	next    int
	wrapped bool
	prev    metrics.RegistrySnapshot // last sampled cumulative values
	cur     metrics.RegistrySnapshot // scratch for the in-progress sample
	prevAt  time.Time
	primed  bool

	stop chan struct{}
	done chan struct{}
}

// NewSampler builds a sampler over reg. It spawns nothing; call Start
// for periodic sampling or Sample to drive it manually.
func NewSampler(reg *metrics.Registry, o SamplerOptions) *Sampler {
	if o.Interval <= 0 {
		o.Interval = DefaultSamplerInterval
	}
	if o.Windows <= 0 {
		o.Windows = DefaultSamplerWindows
	}
	return &Sampler{
		reg:      reg,
		interval: o.Interval,
		ring:     make([]Window, 0, o.Windows),
	}
}

// Interval returns the sampling period.
func (s *Sampler) Interval() time.Duration { return s.interval }

// Start launches the sampling goroutine. Start after Start is a no-op
// until Stop.
func (s *Sampler) Start() {
	s.mu.Lock()
	if s.stop != nil {
		s.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	s.stop, s.done = stop, done
	s.mu.Unlock()
	go func() {
		defer close(done)
		tick := time.NewTicker(s.interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case now := <-tick.C:
				s.Sample(now)
			}
		}
	}()
}

// Stop halts the sampling goroutine and waits for it to exit. The
// retained windows stay queryable.
func (s *Sampler) Stop() {
	s.mu.Lock()
	stop, done := s.stop, s.done
	s.stop, s.done = nil, nil
	s.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// Sample takes one sample at the given wall-clock time. The first call
// only primes the baseline; every later call appends one window
// covering the time since the previous call.
func (s *Sampler) Sample(now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.primed {
		s.reg.SnapshotInto(&s.prev)
		s.prevAt = now
		s.primed = true
		return
	}
	s.reg.SnapshotInto(&s.cur)
	var slot *Window
	if len(s.ring) < cap(s.ring) {
		s.ring = append(s.ring, Window{})
		slot = &s.ring[len(s.ring)-1]
	} else {
		slot = &s.ring[s.next]
		s.wrapped = true
	}
	if s.next++; s.next == cap(s.ring) {
		s.next = 0
	}
	slot.Start, slot.End = s.prevAt, now
	s.cur.DeltaInto(s.prev, &slot.Delta)
	// The freshly sampled cumulative values become the next baseline;
	// the old baseline's maps become the next sample's scratch.
	s.prev, s.cur = s.cur, s.prev
	s.prevAt = now
}

// Retained reports how many windows the ring currently holds.
func (s *Sampler) Retained() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ring)
}

// Windows returns deep copies of the most recent windows covering at
// most the given lookback (all retained windows when lookback <= 0),
// oldest first. Copies are deep so callers may serialize them while
// sampling continues.
func (s *Sampler) Windows(lookback time.Duration) []Window {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Window, 0, len(s.ring))
	for _, w := range s.orderedLocked() {
		if lookback > 0 && w.End.Before(s.prevAt.Add(-lookback)) {
			continue
		}
		out = append(out, Window{Start: w.Start, End: w.End, Delta: cloneSnapshot(w.Delta)})
	}
	return out
}

// cloneSnapshot deep-copies a snapshot so a ring slot can keep being
// overwritten while the caller serializes the copy.
func cloneSnapshot(s metrics.RegistrySnapshot) metrics.RegistrySnapshot {
	c := metrics.RegistrySnapshot{
		Counters:   make(map[string]int64, len(s.Counters)),
		Gauges:     make(map[string]metrics.GaugeValue, len(s.Gauges)),
		Histograms: make(map[string]metrics.Snapshot, len(s.Histograms)),
	}
	for n, v := range s.Counters {
		c.Counters[n] = v
	}
	for n, v := range s.Gauges {
		c.Gauges[n] = v
	}
	for n, v := range s.Histograms {
		c.Histograms[n] = v
	}
	return c
}

// orderedLocked returns the ring oldest-first without copying the
// windows themselves. Caller holds s.mu.
func (s *Sampler) orderedLocked() []Window {
	if !s.wrapped {
		return s.ring
	}
	out := make([]Window, 0, len(s.ring))
	out = append(out, s.ring[s.next:]...)
	out = append(out, s.ring[:s.next]...)
	return out
}

// Rates returns per-second rates over the lookback for every counter
// the retained windows cover.
func (s *Sampler) Rates(lookback time.Duration) map[string]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	totals := map[string]int64{}
	var span float64
	for i := range s.ring {
		w := &s.ring[i]
		if lookback > 0 && w.End.Before(s.prevAt.Add(-lookback)) {
			continue
		}
		for n, v := range w.Delta.Counters {
			totals[n] += v
		}
		span += w.Seconds()
	}
	out := make(map[string]float64, len(totals))
	if span <= 0 {
		return out
	}
	for n, v := range totals {
		out[n] = float64(v) / span
	}
	return out
}

// Levels returns the most recent window's gauge levels (current value
// and cumulative high-water mark).
func (s *Sampler) Levels() map[string]metrics.GaugeValue {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[string]metrics.GaugeValue{}
	if len(s.ring) == 0 {
		return out
	}
	last := s.next - 1
	if last < 0 {
		last = len(s.ring) - 1
	}
	for n, v := range s.ring[last].Delta.Gauges {
		out[n] = v
	}
	return out
}

// WindowQuantiles merges the histogram deltas across the lookback and
// returns one windowed snapshot per histogram — p50/p99 over the
// recent past instead of since process start.
func (s *Sampler) WindowQuantiles(lookback time.Duration) map[string]metrics.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[string]metrics.Snapshot{}
	for i := range s.ring {
		w := &s.ring[i]
		if lookback > 0 && w.End.Before(s.prevAt.Add(-lookback)) {
			continue
		}
		for n, v := range w.Delta.Histograms {
			out[n] = out[n].Merge(v)
		}
	}
	return out
}
