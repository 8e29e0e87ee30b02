package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fanstore"
)

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	parent := interval{10 * ms, 110 * ms}
	for _, c := range []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"no children", nil, 100 * ms},
		{"sequential", []interval{{10 * ms, 30 * ms}, {50 * ms, 60 * ms}}, 70 * ms},
		{"overlapping", []interval{{20 * ms, 60 * ms}, {40 * ms, 80 * ms}}, 40 * ms},
		{"nested", []interval{{20 * ms, 90 * ms}, {30 * ms, 40 * ms}}, 30 * ms},
		{"unsorted and sticking out", []interval{{100 * ms, 150 * ms}, {0, 20 * ms}}, 80 * ms},
		{"outside", []interval{{200 * ms, 300 * ms}}, 100 * ms},
		{"covering", []interval{{0, 200 * ms}}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %v, want %v", c.name, got, c.want)
		}
	}
}

func TestRecorder(t *testing.T) {
	var none *recorder
	if iv := none.end(none.begin("x", 0, 0)); iv != (interval{}) {
		t.Error("a nil recorder must record nothing")
	}
	none.setEpoch(0, mark{})
	none.observe("x", time.Second)

	r := newRecorder()
	r.end(r.begin("off", 0, 0))
	if len(r.of("off", time.Nanosecond)) != 0 {
		t.Error("a recorder that is off must record nothing")
	}
	r.on.Store(true)
	epoch := r.begin("epoch", 1, 0)
	r.setEpoch(1, epoch)
	worker := r.beginWorker("fs.readfile.local", 1)
	if worker.parent != epoch.id {
		t.Errorf("worker span caused by %d, want the epoch span %d", worker.parent, epoch.id)
	}
	r.end(worker)
	iv := r.end(epoch)
	if iv.end <= iv.start || len(r.kept) != 2 || len(r.of("epoch", time.Nanosecond)) != 1 {
		t.Errorf("recorded %d spans, epoch extent %v", len(r.kept), iv)
	}

	// The trace file is one JSON array holding the bench spans and the
	// program's tracer spans of the window.
	tr := fanstore.NewTracer(0, 16)
	tr.Record(0, "a/b", 0, time.Millisecond, time.Millisecond)
	path := filepath.Join(t.TempDir(), "sub", "t.json")
	if err := writeChrome(path, r, []*fanstore.Tracer{tr}, tr.Epoch(), tr.Epoch().Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []chromeEvent
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace file is not a JSON array of events: %v", err)
	}
	if len(events) != 3 || events[2].Cat != "program" || events[2].Args["path"] != "a/b" {
		t.Errorf("trace events: %+v", events)
	}
}
