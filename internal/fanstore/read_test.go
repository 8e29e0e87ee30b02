package fanstore

import (
	"testing"

	"fanstore/internal/metrics"
)

// reading is a test's read-out of a registry: lookups by instrument name
// that fail the test on a name the registry does not hold, so a typo or
// a renamed instrument cannot pass as a zero.
type reading struct {
	t    testing.TB
	snap metrics.RegistrySnapshot
}

// read snapshots n's registry. The lookups use t.Errorf, so they are safe
// on the rank goroutines of mpi.Run.
func read(t testing.TB, n *Node) reading {
	return reading{t: t, snap: n.Registry().Snapshot()}
}

// String is the registry text, for a failure message's %v.
func (r reading) String() string { return r.snap.Text() }

func (r reading) counter(name string) int64 {
	r.t.Helper()
	v, ok := r.snap.Counters[name]
	if !ok {
		r.t.Errorf("registry holds no counter %q", name)
	}
	return v
}

func (r reading) gauge(name string) metrics.GaugeValue {
	r.t.Helper()
	v, ok := r.snap.Gauges[name]
	if !ok {
		r.t.Errorf("registry holds no gauge %q", name)
	}
	return v
}

func (r reading) hist(name string) metrics.Snapshot {
	r.t.Helper()
	v, ok := r.snap.Histograms[name]
	if !ok {
		r.t.Errorf("registry holds no histogram %q", name)
	}
	return v
}

// recordsLocked maps every path in n's table to its record, for tests
// that walk the namespace. Callers hold n.mu.
func (n *Node) recordsLocked() map[string]*FileMeta {
	recs := make(map[string]*FileMeta, len(n.objs))
	for _, o := range n.objs {
		recs[o.meta.Path] = o.meta
	}
	return recs
}
