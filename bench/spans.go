package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fanstore"
)

// span is one interval the benchmark timed at an outside seam of the
// program: a public call into a layer, seen from the caller.
type span struct {
	ID     int64 // unique within a run
	Parent int64 // the span that caused this one; 0 for a root
	Name   string
	Rank   int
	Start  time.Duration // offset from the recorder's origin
	Dur    time.Duration
}

// interval is a span's extent on the recorder's clock.
type interval struct{ start, end time.Duration }

// keepSpans bounds the spans retained for the Chrome trace file; every
// span's duration is kept for the statistics regardless.
const keepSpans = 1 << 17

// recorder collects bench-owned spans in memory during the timed window
// of a traced run. A nil recorder, or one that is off, records nothing,
// so the loops call it unconditionally.
type recorder struct {
	origin time.Time
	on     atomic.Bool
	nextID atomic.Int64
	// epochSpan is each rank's current epoch span: the cause assigned to
	// spans on goroutines the loop does not own (pipeline worker,
	// scheduler, daemon), which cannot be handed a parent from outside.
	epochSpan [ranks]atomic.Int64

	mu      sync.Mutex
	durs    map[string][]time.Duration
	kept    []span
	dropped int
}

func newRecorder() *recorder {
	return &recorder{origin: time.Now(), durs: make(map[string][]time.Duration)}
}

// mark is an open span.
type mark struct {
	id, parent int64
	name       string
	rank       int
	t0         time.Time
}

func (r *recorder) begin(name string, rank int, parent int64) mark {
	if r == nil || !r.on.Load() {
		return mark{}
	}
	return mark{id: r.nextID.Add(1), parent: parent, name: name, rank: rank, t0: time.Now()}
}

// beginWorker opens a span caused by the rank's current epoch.
func (r *recorder) beginWorker(name string, rank int) mark {
	if r == nil {
		return mark{}
	}
	return r.begin(name, rank, r.epochSpan[rank].Load())
}

// setEpoch makes m the cause of the rank's worker-goroutine spans.
func (r *recorder) setEpoch(rank int, m mark) {
	if r != nil {
		r.epochSpan[rank].Store(m.id)
	}
}

// end closes m and returns its extent (zero for a mark that was never
// opened).
func (r *recorder) end(m mark) interval {
	if m.id == 0 {
		return interval{}
	}
	dur := time.Since(m.t0)
	start := m.t0.Sub(r.origin)
	r.mu.Lock()
	r.durs[m.name] = append(r.durs[m.name], dur)
	if len(r.kept) < keepSpans {
		r.kept = append(r.kept, span{ID: m.id, Parent: m.parent, Name: m.name, Rank: m.rank, Start: start, Dur: dur})
	} else {
		r.dropped++
	}
	r.mu.Unlock()
	return interval{start, start + dur}
}

// observe records a derived duration (a self time) under name.
func (r *recorder) observe(name string, d time.Duration) {
	if r == nil || !r.on.Load() {
		return
	}
	r.mu.Lock()
	r.durs[name] = append(r.durs[name], d)
	r.mu.Unlock()
}

// of returns the recorded durations of name in unit.
func (r *recorder) of(name string, unit time.Duration) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return durs(r.durs[name], unit)
}

// selfTime is a span's duration minus the part of it its children
// cover. Children may overlap each other and stick out of the parent.
func selfTime(p interval, children []interval) time.Duration {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < p.start {
			c.start = p.start
		}
		if c.end > p.end {
			c.end = p.end
		}
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	var covered, upTo time.Duration = 0, p.start
	for _, c := range cs {
		if c.start > upTo {
			upTo = c.start
		}
		if c.end > upTo {
			covered += c.end - upTo
			upTo = c.end
		}
	}
	return (p.end - p.start) - covered
}

// chromeEvent is one complete event of the Chrome trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// trackOf spreads a rank's spans over tracks so that spans from
// different goroutines do not nest by accident in the viewer.
func trackOf(name string) int {
	switch name {
	case "fs.readfile.local", "fs.readfile.remote":
		return 1
	case "prefetch.stage":
		return 2
	case "fanstore.backend.get":
		return 3
	}
	return 0
}

// programTrack is the track of the program's own tracer spans.
const programTrack = 4

// writeChrome writes the bench-owned spans merged with the program's
// tracer spans from [from, to) as one Chrome trace-event JSON array
// (Perfetto / chrome://tracing), one group of tracks per rank.
func writeChrome(path string, r *recorder, tracers []*fanstore.Tracer, from, to time.Time) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// bufio.Writer keeps its first error and turns later writes into
	// no-ops, so only Flush needs checking.
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	sep := "[\n"
	emit := func(e chromeEvent) {
		w.WriteString(sep)
		sep = ",\n"
		enc.Encode(e) // plain structs of strings and numbers always encode
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	r.mu.Lock()
	kept := r.kept
	r.mu.Unlock()
	for _, s := range kept {
		emit(chromeEvent{Name: s.Name, Cat: "bench", Ph: "X", Ts: us(s.Start), Dur: us(s.Dur),
			Tid: s.Rank*8 + trackOf(s.Name), Args: map[string]any{"id": s.ID, "parent": s.Parent}})
	}
	written := 0
	for _, tr := range tracers {
		shift := tr.Epoch().Sub(r.origin)
		for _, s := range tr.Spans() {
			at := tr.Epoch().Add(s.Start)
			if at.Before(from) || !at.Before(to) || written >= keepSpans {
				continue
			}
			written++
			args := map[string]any{"outcome": s.Outcome.String()}
			if p := tr.PathName(s.PathID); p != "" {
				args["path"] = p
			}
			emit(chromeEvent{Name: s.Op.String(), Cat: "program", Ph: "X", Ts: us(s.Start + shift),
				Dur: us(s.Dur), Tid: int(s.Rank)*8 + programTrack, Args: args})
		}
	}
	if sep == "[\n" {
		w.WriteString(sep)
	}
	w.WriteString("]\n")
	err = w.Flush()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
