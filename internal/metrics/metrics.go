// Package metrics provides lock-light latency histograms for FanStore's
// hot paths. The paper's evaluation reports throughput distributions
// (files/s at several file sizes, Tables III/VI); per-operation
// histograms are how a deployment verifies it is seeing the same
// behaviour — e.g. that open() latency is bimodal (local decompress vs.
// remote fetch) with the expected mode weights.
//
// Histogram uses power-of-two buckets from 1 us to ~36 min (2^31 us),
// with an overflow bucket above that: recording is
// a single atomic increment, safe for the many concurrent I/O threads of
// a training process (§II-B1), and quantile queries are approximate to
// within a factor of two (bucket resolution), which is ample for
// bottleneck attribution.
package metrics

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
)

// numBuckets covers 1 us .. 2^31 us (~36 min) plus an overflow bucket.
const numBuckets = 33

// NumBuckets is the histogram bucket count, exported so exposition
// layers (Prometheus text, series windows) can walk Snapshot.Buckets
// without hard-coding the shape.
const NumBuckets = numBuckets

// BucketUpper returns the exclusive upper bound of bucket i — the
// single source of truth for bucket boundaries, shared with external
// expositions (e.g. Prometheus `le` labels).
func BucketUpper(i int) time.Duration { return bucketUpper(i) }

// Histogram is a fixed-bucket latency histogram. The zero value is ready
// to use and must not be copied after first use.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64 // microseconds
	buckets [numBuckets]atomic.Int64
}

// bucketOf maps a duration to its bucket index: bucket i holds samples in
// [2^(i-1), 2^i) microseconds, bucket 0 holds sub-microsecond samples.
func bucketOf(d time.Duration) int {
	us := d.Microseconds()
	if us <= 0 {
		return 0
	}
	b := bits.Len64(uint64(us))
	if b >= numBuckets {
		return numBuckets - 1
	}
	return b
}

// bucketUpper returns the exclusive upper bound of bucket i.
func bucketUpper(i int) time.Duration {
	if i >= numBuckets-1 {
		return time.Duration(1<<62 - 1)
	}
	return time.Duration(1<<uint(i)) * time.Microsecond
}

// Observe records one sample.
func (h *Histogram) Observe(d time.Duration) {
	h.count.Add(1)
	h.sum.Add(d.Microseconds())
	h.buckets[bucketOf(d)].Add(1)
}

// Time runs f and records its duration.
func (h *Histogram) Time(f func()) {
	start := time.Now()
	f()
	h.Observe(time.Since(start))
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Mean returns the mean latency (zero with no samples).
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load()/n) * time.Microsecond
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1),
// accurate to the bucket resolution (a factor of two).
func (h *Histogram) Quantile(q float64) time.Duration {
	var buckets [numBuckets]int64
	for i := range buckets {
		buckets[i] = h.buckets[i].Load()
	}
	return bucketQuantile(&buckets, h.count.Load(), q)
}

// bucketQuantile computes the q-quantile upper bound over a bucket
// array; shared by live histograms and snapshots so merged snapshots
// answer quantile queries identically.
func bucketQuantile(buckets *[numBuckets]int64, n int64, q float64) time.Duration {
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(q * float64(n))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := 0; i < numBuckets; i++ {
		cum += buckets[i]
		if cum >= target {
			return bucketUpper(i)
		}
	}
	return bucketUpper(numBuckets - 1)
}

// Merge folds every sample recorded in o into h. Both histograms stay
// usable; concurrent Observes on either side land in one histogram or
// the other but are never lost.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil {
		return
	}
	h.count.Add(o.count.Load())
	h.sum.Add(o.sum.Load())
	for i := range h.buckets {
		h.buckets[i].Add(o.buckets[i].Load())
	}
}

// Snapshot is a point-in-time copy for reporting. Count, Sum, and
// Buckets are the mergeable state; Mean/P50/P99/Max are derived at
// snapshot (or merge) time for convenience.
type Snapshot struct {
	Count   int64             `json:"count"`
	Sum     int64             `json:"sum_us"` // total microseconds
	Mean    time.Duration     `json:"mean"`
	P50     time.Duration     `json:"p50"`
	P99     time.Duration     `json:"p99"`
	Max     time.Duration     `json:"max"` // upper bound of the highest non-empty bucket
	Buckets [numBuckets]int64 `json:"buckets"`
}

// Snapshot captures the histogram's current state. Concurrent Observes
// may land between field reads; totals remain self-consistent enough for
// reporting.
func (h *Histogram) Snapshot() Snapshot {
	s := Snapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
	}
	for i := range s.Buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.derive()
	return s
}

// derive recomputes the convenience fields from Count/Sum/Buckets.
func (s *Snapshot) derive() {
	s.Mean = 0
	if s.Count > 0 {
		s.Mean = time.Duration(s.Sum/s.Count) * time.Microsecond
	}
	s.P50 = bucketQuantile(&s.Buckets, s.Count, 0.50)
	s.P99 = bucketQuantile(&s.Buckets, s.Count, 0.99)
	s.Max = 0
	for i, c := range s.Buckets {
		if c > 0 {
			s.Max = bucketUpper(i)
		}
	}
}

// Quantile answers quantile queries on a snapshot, with the same bucket
// resolution as the live histogram.
func (s Snapshot) Quantile(q float64) time.Duration {
	return bucketQuantile(&s.Buckets, s.Count, q)
}

// Merge returns the snapshot combining s and o, as if every sample of
// both had been recorded into one histogram. It is commutative and
// associative, so cluster-wide reductions can fold rank snapshots in
// any order.
func (s Snapshot) Merge(o Snapshot) Snapshot {
	m := Snapshot{Count: s.Count + o.Count, Sum: s.Sum + o.Sum}
	for i := range m.Buckets {
		m.Buckets[i] = s.Buckets[i] + o.Buckets[i]
	}
	m.derive()
	return m
}

// Delta returns the snapshot covering exactly the samples recorded
// after prev was taken and up to s — Count, Sum, and every bucket
// subtract exactly (all are monotonic int64 totals of the same live
// histogram, so no precision is lost), and the convenience quantiles
// are re-derived from the bucket differences. This is the windowing
// primitive behind the series engine: p50/p99 "over the last window"
// instead of since process start. prev must be an earlier snapshot of
// the same histogram; the zero Snapshot works as "the beginning".
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	d := Snapshot{Count: s.Count - prev.Count, Sum: s.Sum - prev.Sum}
	for i := range d.Buckets {
		d.Buckets[i] = s.Buckets[i] - prev.Buckets[i]
	}
	d.derive()
	return d
}

// String renders a compact summary line.
func (s Snapshot) String() string {
	return fmt.Sprintf("n=%d mean=%v p50<=%v p99<=%v max<=%v",
		s.Count, s.Mean, s.P50, s.P99, s.Max)
}
