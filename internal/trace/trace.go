// Package trace is FanStore's per-rank span tracer: a fixed-size ring
// buffer of operation records (op kind, interned path, rank, start,
// duration, outcome) cheap enough to leave compiled into every hot path.
//
// The paper's evaluation (§VII, Tables III/VI) is entirely about
// attributing time — local decompress vs. remote fetch vs. shared-FS
// fallback. Aggregate histograms (internal/metrics) answer "how much";
// this package answers "when and why": one rank's timeline of opens,
// fetches, decompressions and evictions, exportable as Chrome
// trace-event JSON so a whole training run renders in Perfetto /
// chrome://tracing with one track (tid) per rank.
//
// Design constraints:
//
//   - Nil-safe and allocation-free when disabled. Every method on a nil
//     *Tracer is a no-op that performs no clock reads and no
//     allocations, so instrumentation can stay unconditionally in the
//     data path (see the AllocsPerRun test).
//   - Bounded. Records live in a fixed-size ring; a run that outgrows
//     it keeps the most recent spans and counts the overwritten ones
//     (Dropped), so tracing can never exhaust memory mid-run.
//   - Compact. Paths are interned to uint32 ids once; a Span is six
//     scalar fields with no pointers.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Op identifies the operation a span timed.
type Op uint8

const (
	// OpOpen is a whole Node.Open: lookup + produce + pin.
	OpOpen Op = iota
	// OpRead is a whole-file read (Node.ReadFile).
	OpRead
	// OpFetch is one remote fetch round trip (all failover attempts).
	OpFetch
	// OpDecompress is one codec decompression.
	OpDecompress
	// OpEvict is one cache eviction (instantaneous; Dur 0).
	OpEvict
	// OpPrefetch is one batched look-ahead staging call (Node.Prefetch).
	OpPrefetch
	// OpWait is consumer time blocked in the prefetch pipeline's Next.
	OpWait
	// OpCompute is consumer time between pipeline batches (the model's
	// forward/backward, from the I/O system's point of view).
	OpCompute
	// OpEpoch is one training epoch (trainsim / training loops).
	OpEpoch
	// OpService is daemon-side service of one peer request.
	OpService
	numOps
)

var opNames = [numOps]string{
	OpOpen:       "open",
	OpRead:       "read",
	OpFetch:      "fetch",
	OpDecompress: "decompress",
	OpEvict:      "evict",
	OpPrefetch:   "prefetch",
	OpWait:       "wait",
	OpCompute:    "compute",
	OpEpoch:      "epoch",
	OpService:    "service",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Outcome classifies how a span's operation was satisfied — the axis the
// paper's bimodal open() distribution lives on.
type Outcome uint8

const (
	// OutcomeNone marks spans with no meaningful outcome (waits, epochs).
	OutcomeNone Outcome = iota
	// OutcomeMetaHit is a metadata-only operation served from the
	// in-RAM table (stat, readdir, written-file lookup).
	OutcomeMetaHit
	// OutcomeCacheHit was served from the decompressed cache.
	OutcomeCacheHit
	// OutcomeLocal was decompressed from the local backend.
	OutcomeLocal
	// OutcomeZeroCopy was served straight from the partition blob.
	OutcomeZeroCopy
	// OutcomeRemoteFetch required a peer round trip.
	OutcomeRemoteFetch
	// OutcomeFailover required routing away from an errored peer.
	OutcomeFailover
	// OutcomeBackendGet paid a Backend.Get because Peek declined to
	// lend the local object.
	OutcomeBackendGet
	// OutcomeCoalesced waited on another caller's in-flight fetch+decode
	// of the same path instead of issuing its own (singleflight).
	OutcomeCoalesced
	// OutcomeDegraded was reconstructed from erasure-coded shards
	// because no owner held the whole object.
	OutcomeDegraded
	// OutcomeError is an operation that failed.
	OutcomeError
	numOutcomes
)

var outcomeNames = [numOutcomes]string{
	OutcomeNone:        "",
	OutcomeMetaHit:     "meta-hit",
	OutcomeCacheHit:    "cache-hit",
	OutcomeLocal:       "local",
	OutcomeZeroCopy:    "zero-copy",
	OutcomeRemoteFetch: "remote-fetch",
	OutcomeFailover:    "failover",
	OutcomeBackendGet:  "backend-get",
	OutcomeCoalesced:   "coalesced",
	OutcomeDegraded:    "degraded",
	OutcomeError:       "error",
}

func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return fmt.Sprintf("outcome(%d)", uint8(o))
}

// Span is one recorded operation. Start is relative to the tracer's
// epoch (its creation time, or zero for synthetic timelines), so spans
// from tracers sharing an epoch merge onto one timeline.
type Span struct {
	Start   time.Duration // offset from the tracer epoch
	Dur     time.Duration
	PathID  uint32 // interned path; 0 = no path
	Rank    int32
	Op      Op
	Outcome Outcome
}

// Tracer records spans for one rank into a fixed-size ring buffer.
// A nil Tracer is valid and records nothing. Methods are safe for
// concurrent use.
type Tracer struct {
	rank  int32
	epoch time.Time

	mu      sync.Mutex
	ring    []Span
	next    int  // ring slot the next span lands in
	wrapped bool // ring has overwritten at least one span
	dropped int64
	paths   map[string]uint32
	names   []string // id -> path; names[0] == ""
}

// DefaultCapacity is the ring size used when New is given a
// non-positive capacity: 64k spans ≈ 1.5 MiB, several epochs of a
// typical per-rank open stream.
const DefaultCapacity = 1 << 16

// New builds a tracer for rank with a ring of the given capacity
// (DefaultCapacity when <= 0). The tracer's epoch is time.Now(): Begin
// timestamps and span starts are relative to it.
func New(rank, capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{
		rank:  int32(rank),
		epoch: time.Now(),
		ring:  make([]Span, 0, capacity),
		paths: make(map[string]uint32),
		names: []string{""},
	}
}

// NewSynthetic builds a tracer whose epoch is the zero time, for
// simulated timelines recorded with Record rather than Begin/End.
func NewSynthetic(rank, capacity int) *Tracer {
	t := New(rank, capacity)
	t.epoch = time.Time{}
	return t
}

// Enabled reports whether spans are being recorded.
func (t *Tracer) Enabled() bool { return t != nil }

// Rank returns the rank this tracer records for (-1 when nil).
func (t *Tracer) Rank() int {
	if t == nil {
		return -1
	}
	return int(t.rank)
}

// Begin returns the wall-clock start for a span being timed. On a nil
// tracer it returns the zero time without reading the clock, so a
// disabled data path pays two nil checks and nothing else.
func (t *Tracer) Begin() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// End records a span begun at start (a Begin result). A nil tracer or
// zero start records nothing.
func (t *Tracer) End(op Op, path string, outcome Outcome, start time.Time) {
	if t == nil || start.IsZero() {
		return
	}
	now := time.Now()
	t.record(op, path, outcome, start.Sub(t.epoch), now.Sub(start))
}

// Event records an instantaneous span (Dur 0) at the current time.
func (t *Tracer) Event(op Op, path string, outcome Outcome) {
	if t == nil {
		return
	}
	t.record(op, path, outcome, time.Since(t.epoch), 0)
}

// Record appends a span with an explicit start offset and duration —
// the entry point for synthetic timelines (simulators, replays).
func (t *Tracer) Record(op Op, path string, outcome Outcome, start, dur time.Duration) {
	if t == nil {
		return
	}
	t.record(op, path, outcome, start, dur)
}

func (t *Tracer) record(op Op, path string, outcome Outcome, start, dur time.Duration) {
	t.mu.Lock()
	id := uint32(0)
	if path != "" {
		var ok bool
		if id, ok = t.paths[path]; !ok {
			id = uint32(len(t.names))
			t.names = append(t.names, path)
			t.paths[path] = id
		}
	}
	s := Span{Start: start, Dur: dur, PathID: id, Rank: t.rank, Op: op, Outcome: outcome}
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, s)
	} else {
		t.ring[t.next] = s
		t.wrapped = true
		t.dropped++
	}
	if t.next++; t.next == cap(t.ring) {
		t.next = 0
	}
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans in recording order (oldest
// surviving span first). Nil tracers return nil.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.ring))
	if t.wrapped {
		out = append(out, t.ring[t.next:]...)
		out = append(out, t.ring[:t.next]...)
	} else {
		out = append(out, t.ring...)
	}
	return out
}

// Len reports how many spans the ring currently holds.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.ring)
}

// Dropped reports how many spans the ring has overwritten.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// PathName resolves an interned path id ("" for 0 or unknown ids).
func (t *Tracer) PathName(id uint32) string {
	if t == nil || id == 0 {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) < len(t.names) {
		return t.names[id]
	}
	return ""
}

// Epoch returns the tracer's timeline origin (zero for nil or
// synthetic tracers) — ops surfaces use it to show how far back the
// live ring reaches.
func (t *Tracer) Epoch() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.epoch
}

// WriteChrome exports this tracer's live ring as Chrome trace-event
// JSON. It is safe on a tracer still recording: Spans copies the ring
// under the lock, so concurrent End/Record calls land in the ring or
// the export but are never torn. This is what the ops server's /trace
// endpoint serves mid-run.
func (t *Tracer) WriteChrome(w io.Writer) error { return WriteChrome(w, t) }

// WriteChrome merges the tracers' spans onto one timeline and writes
// Chrome trace-event JSON (the "JSON array format"): one complete event
// ("ph":"X") per span, sorted by start time, pid 0, tid = rank, ts/dur
// in microseconds. The output loads directly in Perfetto or
// chrome://tracing, rendering one horizontal track per rank.
func WriteChrome(w io.Writer, tracers ...*Tracer) error {
	type ev struct {
		span Span
		path string
	}
	var evs []ev
	for _, t := range tracers {
		if t == nil {
			continue
		}
		for _, s := range t.Spans() {
			evs = append(evs, ev{span: s, path: t.PathName(s.PathID)})
		}
	}
	sort.SliceStable(evs, func(i, j int) bool {
		a, b := evs[i].span, evs[j].span
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.Rank < b.Rank
	})

	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	for i, e := range evs {
		s := e.span
		cat := s.Outcome.String()
		if cat == "" {
			cat = "none"
		}
		// ts/dur are microseconds; keep sub-microsecond precision with
		// three decimals so short spans stay visible.
		fmt.Fprintf(bw, `{"name":%q,"cat":%q,"ph":"X","ts":%.3f,"dur":%.3f,"pid":0,"tid":%d`,
			s.Op.String(), cat, float64(s.Start)/float64(time.Microsecond),
			float64(s.Dur)/float64(time.Microsecond), s.Rank)
		if e.path != "" {
			fmt.Fprintf(bw, `,"args":{"path":%q}`, e.path)
		}
		if i < len(evs)-1 {
			bw.WriteString("},\n")
		} else {
			bw.WriteString("}\n")
		}
	}
	if _, err := bw.WriteString("]\n"); err != nil {
		return err
	}
	return bw.Flush()
}
