package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"fanstore/internal/metrics"
)

// MonitorOptions configures a cluster health Monitor.
type MonitorOptions struct {
	// Interval is the polling period for Start (default 2s).
	Interval time.Duration
	// Collect gathers one registry snapshot per member, indexed by
	// rank. Members that cannot be reached should yield a zero
	// snapshot at their index so rank alignment survives partial
	// outages. Required.
	Collect func() ([]metrics.RegistrySnapshot, error)
	// Flag folds the collected snapshots into the ranks considered
	// stragglers (typically fanstore.FlagStragglers, which reuses the
	// cluster report's p99-vs-median detector). Optional; no flagging
	// when nil.
	Flag func([]metrics.RegistrySnapshot) []int
	// Metrics receives the health.* instruments (polls, poll latency,
	// member and straggler gauges). Optional.
	Metrics *metrics.Registry
	// Events receives straggler/health state-transition events.
	// Optional.
	Events *EventLog
}

// Monitor polls cluster-wide member snapshots and keeps a live
// straggler verdict, instead of the one-shot post-run GatherReport.
// It runs coordinator-side: Collect scrapes member ops endpoints
// (CollectHTTP) or reads in-process registries directly; Flag is the
// same detector the end-of-run cluster report uses, so live and
// post-mortem answers can never disagree on methodology.
//
// State transitions — a rank newly flagged, a flagged rank
// recovering, polls beginning or ceasing to fail — emit events; the
// current verdict is always readable via Flagged.
type Monitor struct {
	o MonitorOptions

	mu      sync.Mutex
	flagged map[int]bool
	failing bool
	lastErr error
	polls   int64

	stop chan struct{}
	done chan struct{}

	mPolls      *metrics.Counter
	mPollErrors *metrics.Counter
	mLatency    *metrics.Histogram
	gMembers    *metrics.Gauge
	gStragglers *metrics.Gauge
}

// DefaultMonitorInterval is the polling period when
// MonitorOptions.Interval is unset.
const DefaultMonitorInterval = 2 * time.Second

// NewMonitor builds a monitor. It spawns nothing; call Start for
// continuous polling or Poll to drive it manually.
func NewMonitor(o MonitorOptions) *Monitor {
	if o.Interval <= 0 {
		o.Interval = DefaultMonitorInterval
	}
	return &Monitor{
		o:           o,
		flagged:     map[int]bool{},
		mPolls:      o.Metrics.Counter("health.polls"),
		mPollErrors: o.Metrics.Counter("health.poll.errors"),
		mLatency:    o.Metrics.Histogram("health.poll.latency"),
		gMembers:    o.Metrics.Gauge("health.members"),
		gStragglers: o.Metrics.Gauge("health.stragglers"),
	}
}

// Start launches the polling goroutine. Start after Start is a no-op
// until Stop.
func (m *Monitor) Start() {
	m.mu.Lock()
	if m.stop != nil {
		m.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	m.stop, m.done = stop, done
	m.mu.Unlock()
	go func() {
		defer close(done)
		tick := time.NewTicker(m.o.Interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				m.Poll()
			}
		}
	}()
}

// Stop halts the polling goroutine and waits for it to exit.
func (m *Monitor) Stop() {
	m.mu.Lock()
	stop, done := m.stop, m.done
	m.stop, m.done = nil, nil
	m.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// Poll runs one collection round: gather member snapshots, fold them
// into a straggler verdict, record health.* instruments, and emit
// events on transitions. It returns the currently flagged ranks.
func (m *Monitor) Poll() ([]int, error) {
	start := time.Now()
	snaps, err := m.o.Collect()
	m.mLatency.Observe(time.Since(start))
	m.mPolls.Add(1)
	if err != nil {
		m.mPollErrors.Add(1)
		m.mu.Lock()
		m.lastErr = err
		first := !m.failing
		m.failing = true
		m.polls++
		m.mu.Unlock()
		if first && m.o.Events.Enabled() {
			m.o.Events.Emitf(EvHealth, SevError, "health poll failing: %v", err)
		}
		return m.Flagged(), err
	}
	m.gMembers.Set(int64(len(snaps)))
	var cur []int
	if m.o.Flag != nil {
		cur = m.o.Flag(snaps)
	}
	m.gStragglers.Set(int64(len(cur)))

	m.mu.Lock()
	if m.failing {
		m.failing = false
		if m.o.Events.Enabled() {
			m.o.Events.Emit(EvHealth, SevInfo, "health poll recovered")
		}
	}
	m.lastErr = nil
	m.polls++
	curSet := make(map[int]bool, len(cur))
	for _, r := range cur {
		curSet[r] = true
	}
	var newly, cleared []int
	for _, r := range cur {
		if !m.flagged[r] {
			newly = append(newly, r)
		}
	}
	for r := range m.flagged {
		if !curSet[r] {
			cleared = append(cleared, r)
		}
	}
	m.flagged = curSet
	m.mu.Unlock()

	if m.o.Events.Enabled() {
		for _, r := range newly {
			m.o.Events.Emitf(EvStraggler, SevWarn, "rank %d flagged as straggler (%d/%d members lagging)", r, len(cur), len(snaps))
		}
		for _, r := range cleared {
			m.o.Events.Emitf(EvStraggler, SevInfo, "rank %d recovered", r)
		}
	}
	return cur, nil
}

// Flagged returns the ranks currently considered stragglers, sorted.
func (m *Monitor) Flagged() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]int, 0, len(m.flagged))
	for r := range m.flagged {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// Polls reports how many collection rounds have run.
func (m *Monitor) Polls() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.polls
}

// LastErr returns the most recent poll error (nil when healthy).
func (m *Monitor) LastErr() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastErr
}

// CollectHTTP returns a Collect function that scrapes each member's
// /varz over HTTP — the cross-process deployment shape, where the
// coordinator daemon polls its peers' ops endpoints. An unreachable
// member yields a zero snapshot at its index (rank alignment
// survives); the error is non-nil only when every member is
// unreachable.
func CollectHTTP(addrs []string, timeout time.Duration) func() ([]metrics.RegistrySnapshot, error) {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	client := &http.Client{Timeout: timeout}
	return func() ([]metrics.RegistrySnapshot, error) {
		snaps := make([]metrics.RegistrySnapshot, len(addrs))
		var firstErr error
		reached := 0
		for i, addr := range addrs {
			s, err := scrapeVarz(client, addr)
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("obs: scrape %s: %w", addr, err)
				}
				continue
			}
			snaps[i] = s
			reached++
		}
		if reached == 0 && len(addrs) > 0 {
			return nil, firstErr
		}
		return snaps, nil
	}
}

func scrapeVarz(client *http.Client, addr string) (metrics.RegistrySnapshot, error) {
	resp, err := client.Get("http://" + addr + "/varz")
	if err != nil {
		return metrics.RegistrySnapshot{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return metrics.RegistrySnapshot{}, fmt.Errorf("status %s", resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return metrics.RegistrySnapshot{}, err
	}
	return metrics.DecodeSnapshot(body)
}

// CollectRegistries returns a Collect function over in-process
// registries — the single-process multi-rank shape (fanstore-train,
// trainsim), where every rank's registry is directly readable and a
// network scrape would be theater.
func CollectRegistries(regs []*metrics.Registry) func() ([]metrics.RegistrySnapshot, error) {
	return func() ([]metrics.RegistrySnapshot, error) {
		snaps := make([]metrics.RegistrySnapshot, len(regs))
		for i, r := range regs {
			snaps[i] = r.Snapshot()
		}
		return snaps, nil
	}
}
