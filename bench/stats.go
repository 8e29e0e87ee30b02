package main

import (
	"bytes"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (0 < q <= 1); 0 for
// an empty sample. xs need not be sorted and is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median is the middle value, or the mean of the middle two.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// tailLadder is the percentiles a timing may be reported at, per mille.
var tailLadder = []int{500, 900, 950, 990, 999}

// supportedTail is the reporting rule for tails: the highest percentile
// of the ladder that still has at least ten samples beyond it. A sample
// too small for any of them reports its median (0.5).
func supportedTail(n int) float64 {
	best := tailLadder[0]
	for _, pm := range tailLadder {
		if n*(1000-pm)/1000 >= 10 {
			best = pm
		}
	}
	return float64(best) / 1000
}

// tailOrZero is quantile(xs, q) when the sample supports q, else 0: a
// tail read off fewer than ten samples is not reported.
func tailOrZero(xs []float64, q float64) float64 {
	if supportedTail(len(xs)) < q {
		return 0
	}
	return quantile(xs, q)
}

// iqrShare is the distance between the first and third quartile as a
// share of the median — the spread the regression bounds are judged
// against. Quartiles follow Python's statistics.quantiles(xs, n=4)
// (its default exclusive method), which is what the driver computes.
func iqrShare(xs []float64) float64 {
	med := median(xs)
	if len(xs) < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		j := i * (len(s) + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*(len(s)+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return math.Abs(quartile(3)-quartile(1)) / math.Abs(med)
}

func durs(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// usage is a process-wide resource reading; two of them bracket a
// timed window.
type usage struct {
	at      time.Time
	cpu     time.Duration // user + system
	alloc   uint64        // cumulative heap bytes allocated
	mallocs uint64        // cumulative heap objects allocated
}

func readUsage() usage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		at:      time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:   ms.TotalAlloc,
		mallocs: ms.Mallocs,
	}
}

// rssBytes reads the resident set size from /proc/self/statm; 0 where
// procfs is missing.
func rssBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := bytes.Fields(b)
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(string(f[1]), 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}
