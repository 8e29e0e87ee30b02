// Package obs is FanStore's live operations plane. Where
// internal/metrics and internal/trace accumulate passively and render
// after the run, obs makes a running rank observable while it trains:
//
//   - EventLog: a bounded ring of typed, timestamped events emitted
//     from the fault paths (failover, map change, rebalance, degraded
//     read, EC repair, eviction pressure, straggler), drainable as
//     JSON or text at any moment.
//   - Sampler: a rolling time-series engine that periodically
//     snapshots a metrics.Registry into a fixed ring of delta windows,
//     so counter rates ("files/s over the last 10s") and windowed
//     histogram quantiles are answerable mid-run.
//   - Server: an embedded per-rank HTTP ops server (/metrics, /varz,
//     /series, /healthz, /statusz, /trace, /events, /debug/pprof)
//     strictly off the data path.
//   - Monitor: a coordinator-side poller that folds member snapshots
//     into straggler flags and health.* instruments continuously,
//     instead of once after training ends.
//
// Everything here follows the repo's disabled-path discipline: a nil
// *EventLog is inert, nothing spawns a goroutine until Start/Serve is
// called, and the sampler's steady state is allocation-free.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Severity ranks an event's urgency.
type Severity uint8

const (
	// SevInfo marks expected lifecycle transitions (map change,
	// rebalance commit, member join).
	SevInfo Severity = iota
	// SevWarn marks degraded-but-handled conditions (failover taken,
	// degraded read served, straggler flagged, eviction pressure).
	SevWarn
	// SevError marks failures that lost work or redundancy (rebalance
	// job failed, member dead).
	SevError
)

var sevNames = [...]string{SevInfo: "info", SevWarn: "warn", SevError: "error"}

func (s Severity) String() string {
	if int(s) < len(sevNames) {
		return sevNames[s]
	}
	return fmt.Sprintf("sev(%d)", uint8(s))
}

// MarshalJSON renders the severity as its name, keeping /events output
// readable without a decoder ring.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON parses a severity name.
func (s *Severity) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return err
	}
	for i, n := range sevNames {
		if n == name {
			*s = Severity(i)
			return nil
		}
	}
	return fmt.Errorf("obs: unknown severity %q", name)
}

// Kind is an event's type tag. The taxonomy below is shared by every
// emitter; new kinds may be added but existing names are part of the
// /events output contract.
type Kind string

const (
	// EvFailover: a remote fetch routed away from an errored peer.
	EvFailover Kind = "failover"
	// EvMapChange: a new cluster-map version was installed locally.
	EvMapChange Kind = "map-change"
	// EvRebalanceStart: the coordinator started a rebalance job.
	EvRebalanceStart Kind = "rebalance-start"
	// EvRebalanceCommit: a rebalance job's placement was committed.
	EvRebalanceCommit Kind = "rebalance-commit"
	// EvRebalanceFail: a rebalance job failed and was abandoned.
	EvRebalanceFail Kind = "rebalance-fail"
	// EvDegradedRead: an object was reconstructed from EC shards
	// because no owner held it whole.
	EvDegradedRead Kind = "degraded-read"
	// EvECRepair: erasure-coded redundancy was restored for a
	// partition (shards re-pushed or rebuilt).
	EvECRepair Kind = "ec-repair"
	// EvEvictionPressure: the decompressed cache is evicting heavily
	// (emitted at most once per pressure window, not per eviction).
	EvEvictionPressure Kind = "eviction-pressure"
	// EvStraggler: the health monitor flagged (or cleared) a rank
	// whose latency tail left the cluster envelope.
	EvStraggler Kind = "straggler"
	// EvMemberJoin: a node was admitted to the cluster map.
	EvMemberJoin Kind = "member-join"
	// EvMemberLeave: a node left the cluster map.
	EvMemberLeave Kind = "member-leave"
	// EvMemberDead: a node was marked dead in the cluster map.
	EvMemberDead Kind = "member-dead"
	// EvHealth: the cluster health monitor changed state (poll
	// failures beginning or clearing).
	EvHealth Kind = "health"
)

// Event is one structured log entry. Seq is a per-log monotonic
// sequence number: readers can detect overwritten history by gaps
// between the first retained Seq and the last one they saw.
type Event struct {
	Seq  uint64    `json:"seq"`
	Time time.Time `json:"time"`
	Kind Kind      `json:"kind"`
	Sev  Severity  `json:"sev"`
	Rank int       `json:"rank"`
	Msg  string    `json:"msg"`
}

// EventLog is a bounded ring of events. A nil *EventLog is inert —
// emission sites on fault paths stay unconditional — and all methods
// are safe for concurrent use. When the ring is full the oldest events
// are overwritten; Dropped counts them.
type EventLog struct {
	rank int

	mu      sync.Mutex
	ring    []Event
	next    int
	wrapped bool
	seq     uint64
	dropped uint64
}

// DefaultEventCapacity is the ring size used when NewEventLog is given
// a non-positive capacity. Events are rare (fault-path only), so a few
// hundred covers hours of healthy training and still bounds a fault
// storm.
const DefaultEventCapacity = 512

// NewEventLog builds an event log for one rank.
func NewEventLog(rank, capacity int) *EventLog {
	if capacity <= 0 {
		capacity = DefaultEventCapacity
	}
	return &EventLog{rank: rank, ring: make([]Event, 0, capacity)}
}

// Enabled reports whether events are being recorded. Hot paths that
// would format a message should branch on this (or on l != nil)
// before building it, keeping the disabled path allocation-free.
func (l *EventLog) Enabled() bool { return l != nil }

// Emit appends one event. No-op on a nil log.
func (l *EventLog) Emit(k Kind, sev Severity, msg string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.seq++
	e := Event{Seq: l.seq, Time: time.Now(), Kind: k, Sev: sev, Rank: l.rank, Msg: msg}
	if len(l.ring) < cap(l.ring) {
		l.ring = append(l.ring, e)
	} else {
		l.ring[l.next] = e
		l.wrapped = true
		l.dropped++
	}
	if l.next++; l.next == cap(l.ring) {
		l.next = 0
	}
	l.mu.Unlock()
}

// Emitf formats and appends one event. Callers on hot paths should
// gate on Enabled first: the format arguments are evaluated (and may
// allocate) before the nil check can run.
func (l *EventLog) Emitf(k Kind, sev Severity, format string, args ...any) {
	if l == nil {
		return
	}
	l.Emit(k, sev, fmt.Sprintf(format, args...))
}

// Events returns a copy of the retained events, oldest first. Nil logs
// return nil.
func (l *EventLog) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, len(l.ring))
	if l.wrapped {
		out = append(out, l.ring[l.next:]...)
		out = append(out, l.ring[:l.next]...)
	} else {
		out = append(out, l.ring...)
	}
	return out
}

// Len reports how many events the ring currently holds.
func (l *EventLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ring)
}

// Seq reports how many events were ever emitted.
func (l *EventLog) Seq() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Dropped reports how many events the ring has overwritten.
func (l *EventLog) Dropped() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// WriteJSON drains the retained events as one JSON array.
func (l *EventLog) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	evs := l.Events()
	if evs == nil {
		evs = []Event{}
	}
	return enc.Encode(evs)
}

// WriteText drains the retained events as one line each:
//
//	<RFC3339 time> <sev> <kind> rank=<rank> <msg>
func (l *EventLog) WriteText(w io.Writer) error {
	for _, e := range l.Events() {
		if _, err := fmt.Fprintf(w, "%s %-5s %-17s rank=%d %s\n",
			e.Time.Format(time.RFC3339Nano), e.Sev, e.Kind, e.Rank, e.Msg); err != nil {
			return err
		}
	}
	return nil
}
