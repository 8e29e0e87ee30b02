package metrics

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestBucketMapping(t *testing.T) {
	cases := map[time.Duration]int{
		0:                       0,
		500 * time.Nanosecond:   0,
		time.Microsecond:        1,
		2 * time.Microsecond:    2,
		3 * time.Microsecond:    2,
		4 * time.Microsecond:    3,
		1023 * time.Microsecond: 10,
		time.Hour:               numBuckets - 1,
	}
	for d, want := range cases {
		if got := bucketOf(d); got != want {
			t.Errorf("bucketOf(%v) = %d, want %d", d, got, want)
		}
	}
}

func TestBucketInvariantQuick(t *testing.T) {
	// Every duration lands in a bucket whose upper bound exceeds it.
	f := func(us uint32) bool {
		d := time.Duration(us) * time.Microsecond
		b := bucketOf(d)
		return b >= 0 && b < numBuckets && (b == numBuckets-1 || bucketUpper(b) > d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuantiles(t *testing.T) {
	var h Histogram
	// 99 fast ops, 1 slow op.
	for i := 0; i < 99; i++ {
		h.Observe(10 * time.Microsecond)
	}
	h.Observe(50 * time.Millisecond)
	if h.Count() != 100 {
		t.Fatalf("count %d", h.Count())
	}
	if p50 := h.Quantile(0.50); p50 > 16*time.Microsecond {
		t.Fatalf("p50 %v too high", p50)
	}
	if p99 := h.Quantile(0.99); p99 > 16*time.Microsecond {
		t.Fatalf("p99 %v should still be in the fast mode", p99)
	}
	if p100 := h.Quantile(1.0); p100 < 50*time.Millisecond {
		t.Fatalf("p100 %v must cover the slow op", p100)
	}
	if mean := h.Mean(); mean < 400*time.Microsecond || mean > 700*time.Microsecond {
		t.Fatalf("mean %v (want ~510us)", mean)
	}
	var empty Histogram
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestSnapshotAndRendering(t *testing.T) {
	var h Histogram
	h.Time(func() { time.Sleep(2 * time.Millisecond) })
	h.Observe(3 * time.Microsecond)
	s := h.Snapshot()
	if s.Count != 2 || s.Max < 2*time.Millisecond {
		t.Fatalf("snapshot %+v", s)
	}
	if str := s.String(); !strings.Contains(str, "n=2") {
		t.Fatalf("String() = %q", str)
	}
}

func TestConcurrentObserve(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	const goroutines, per = 8, 10000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(g*i%1000) * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != goroutines*per {
		t.Fatalf("lost samples: %d", h.Count())
	}
	var sum int64
	s := h.Snapshot()
	for _, c := range s.Buckets {
		sum += c
	}
	if sum != goroutines*per {
		t.Fatalf("bucket sum %d != count", sum)
	}
}
