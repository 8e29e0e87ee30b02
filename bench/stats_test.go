package main

import (
	"math"
	"testing"
	"time"
)

func TestSupportedTail(t *testing.T) {
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0.5}, {19, 0.5}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {199, 0.9}, {200, 0.95},
		{999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {1 << 20, 0.999},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := tailOrZero(xs, 0.95); got != 190 {
		t.Errorf("p95 of 1..200 = %g, want 190", got)
	}
	if got := tailOrZero(xs, 0.99); got != 0 {
		t.Errorf("p99 of 200 samples = %g, want 0 (only two samples beyond it)", got)
	}
}

func TestQuantileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := quantile(xs, 0.5); got != 3 {
		t.Errorf("nearest-rank p50 = %g, want 3", got)
	}
	if got := quantile(xs, 1); got != 5 {
		t.Errorf("p100 = %g, want 5", got)
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %g, want 2.5", got)
	}
	if quantile(nil, 0.5) != 0 || median(nil) != 0 {
		t.Error("empty samples must read 0")
	}
}

// TestIQRShareMatchesPython pins the spread to what Python's
// statistics.quantiles(xs, n=4) and statistics.median give.
func TestIQRShareMatchesPython(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} // quartiles 2.75, 5.5, 8.25
	if got := iqrShare(ten); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("iqrShare(1..10) = %g, want 1", got)
	}
	four := []float64{13, 10, 12, 11} // quartiles 10.25, 11.5, 12.75
	if got, want := iqrShare(four), 2.5/11.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %g, want %g", got, want)
	}
	if iqrShare([]float64{7}) != 0 {
		t.Error("a single run has no spread")
	}
}

func TestWindowFilesPerSec(t *testing.T) {
	w := window{epochFiles: 512, epochWalls: []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 900 * time.Millisecond}}
	if got := w.filesPerSec(); got != 2560 {
		t.Errorf("files per second over the median epoch = %g, want 2560", got)
	}
}
