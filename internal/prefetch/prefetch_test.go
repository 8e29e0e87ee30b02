package prefetch

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// mapReader serves files from a map with optional artificial latency and
// failure injection.
type mapReader struct {
	files   map[string][]byte
	delay   time.Duration
	failOn  string
	reads   atomic.Int64
	maxSeen atomic.Int64 // highest concurrent readers observed
	cur     atomic.Int64
}

func (m *mapReader) ReadFile(path string) ([]byte, error) {
	c := m.cur.Add(1)
	defer m.cur.Add(-1)
	for {
		seen := m.maxSeen.Load()
		if c <= seen || m.maxSeen.CompareAndSwap(seen, c) {
			break
		}
	}
	m.reads.Add(1)
	if m.delay > 0 {
		time.Sleep(m.delay)
	}
	if path == m.failOn {
		return nil, errors.New("injected read failure")
	}
	data, ok := m.files[path]
	if !ok {
		return nil, fmt.Errorf("no such file %s", path)
	}
	return data, nil
}

func newMapReader(n int) (*mapReader, []string) {
	m := &mapReader{files: make(map[string][]byte)}
	paths := make([]string, n)
	for i := range paths {
		paths[i] = fmt.Sprintf("f%03d", i)
		m.files[paths[i]] = []byte{byte(i)}
	}
	return m, paths
}

func TestDeliversInOrder(t *testing.T) {
	r, paths := newMapReader(40)
	p := New(r, RangeSampler(paths, 4, 0, 1), Options{Workers: 4, Depth: 3})
	defer p.Stop()
	for want := 0; want < 10; want++ {
		b, ok, err := p.Next()
		if err != nil || !ok {
			t.Fatalf("iter %d: ok=%v err=%v", want, ok, err)
		}
		if b.Index != want {
			t.Fatalf("batch %d arrived when %d expected", b.Index, want)
		}
		if len(b.Data) != 4 {
			t.Fatalf("batch %d has %d items", want, len(b.Data))
		}
		for k, d := range b.Data {
			if d[0] != byte(want*4+k) {
				t.Fatalf("batch %d item %d holds %d", want, k, d[0])
			}
		}
	}
	if _, ok, err := p.Next(); ok || err != nil {
		t.Fatalf("after exhaustion: ok=%v err=%v", ok, err)
	}
}

func TestOverlapsIO(t *testing.T) {
	// With per-file latency, multiple workers must overlap reads.
	r, paths := newMapReader(32)
	r.delay = time.Millisecond
	p := New(r, RangeSampler(paths, 2, 0, 1), Options{Workers: 4, Depth: 4})
	defer p.Stop()
	for {
		_, ok, err := p.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	if r.maxSeen.Load() < 2 {
		t.Fatalf("no I/O overlap observed (max concurrent readers %d)", r.maxSeen.Load())
	}
}

func TestPrefetchAheadOfConsumer(t *testing.T) {
	// A slow consumer should find batches ready: reads happen while the
	// consumer "computes".
	r, paths := newMapReader(16)
	p := New(r, RangeSampler(paths, 2, 0, 1), Options{Workers: 2, Depth: 4})
	defer p.Stop()
	if _, ok, err := p.Next(); !ok || err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // "compute"
	if got := r.reads.Load(); got < 6 {
		t.Fatalf("pipeline read only %d files while consumer computed", got)
	}
}

func TestFailurePropagates(t *testing.T) {
	r, paths := newMapReader(20)
	r.failOn = paths[9] // inside iteration 4 (batch 2)
	p := New(r, RangeSampler(paths, 2, 0, 1), Options{Workers: 2, Depth: 2})
	defer p.Stop()
	sawErr := false
	for i := 0; i < 10; i++ {
		b, ok, err := p.Next()
		if err != nil {
			sawErr = true
			if b.Index > 4 {
				t.Fatalf("error after batch %d, want at 4", b.Index)
			}
			break
		}
		if !ok {
			break
		}
		if b.Index >= 4 {
			t.Fatalf("batch %d delivered past the failing iteration", b.Index)
		}
	}
	if !sawErr {
		t.Fatal("injected failure never surfaced")
	}
}

func TestStripedRanks(t *testing.T) {
	_, paths := newMapReader(24)
	seen := make(map[string]int)
	for rank := 0; rank < 3; rank++ {
		s := RangeSampler(paths, 2, rank, 3)
		for i := 0; ; i++ {
			batch, ok := s(i)
			if !ok {
				break
			}
			for _, p := range batch {
				seen[p]++
			}
		}
	}
	if len(seen) != 24 {
		t.Fatalf("ranks covered %d of 24 files", len(seen))
	}
	for p, n := range seen {
		if n != 1 {
			t.Fatalf("file %s read %d times across ranks", p, n)
		}
	}
}

func TestTailBatchDelivered(t *testing.T) {
	// 10 paths, batch 4: the final batch holds the 2 trailing samples
	// instead of being silently dropped (the old sampler under-trained).
	r, paths := newMapReader(10)
	p := New(r, RangeSampler(paths, 4, 0, 1), Options{Workers: 2, Depth: 2})
	defer p.Stop()
	var got []string
	sizes := []int{}
	for {
		b, ok, err := p.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		sizes = append(sizes, len(b.Paths))
		got = append(got, b.Paths...)
	}
	if want := []int{4, 4, 2}; len(sizes) != 3 || sizes[0] != want[0] || sizes[1] != want[1] || sizes[2] != want[2] {
		t.Fatalf("batch sizes %v, want %v", sizes, want)
	}
	if len(got) != 10 {
		t.Fatalf("delivered %d paths, want all 10", len(got))
	}
}

func TestTailBatchAlignedAcrossRanks(t *testing.T) {
	// 9 paths, batch 2, 2 ranks: stride 4 → 3 iterations on EVERY rank.
	// Rank 0's last batch is short ([8]), rank 1's is empty — but both
	// ranks see ok=true for the same iteration count, so collectives in
	// the training loop stay aligned.
	_, paths := newMapReader(9)
	const batch, ranks = 2, 2
	if got := SamplerIters(len(paths), batch, ranks); got != 3 {
		t.Fatalf("SamplerIters = %d, want 3", got)
	}
	seen := make(map[string]int)
	for rank := 0; rank < ranks; rank++ {
		s := RangeSampler(paths, batch, rank, ranks)
		iters := 0
		for i := 0; ; i++ {
			b, ok := s(i)
			if !ok {
				break
			}
			iters++
			for _, p := range b {
				seen[p]++
			}
		}
		if iters != 3 {
			t.Fatalf("rank %d ran %d iterations, want 3 on every rank", rank, iters)
		}
	}
	if len(seen) != 9 {
		t.Fatalf("ranks covered %d of 9 paths", len(seen))
	}
	for p, n := range seen {
		if n != 1 {
			t.Fatalf("path %s delivered %d times", p, n)
		}
	}
	// The rank whose tail stripe lies past the end gets a present-but-
	// empty batch, not end-of-epoch.
	s := RangeSampler(paths, batch, 1, ranks)
	b, ok := s(2)
	if !ok || len(b) != 0 {
		t.Fatalf("rank 1 iter 2: ok=%v len=%d, want an empty aligned batch", ok, len(b))
	}
}

func TestErrorReleasesGoroutinesWithoutStop(t *testing.T) {
	before := runtime.NumGoroutine()
	r, paths := newMapReader(40)
	r.failOn = paths[3]
	p := New(r, RangeSampler(paths, 2, 0, 1), Options{Workers: 4, Depth: 2})
	sawErr := false
	for i := 0; i < 25; i++ {
		_, ok, err := p.Next()
		if err != nil {
			sawErr = true
			break
		}
		if !ok {
			break
		}
	}
	if !sawErr {
		t.Fatal("injected failure never surfaced")
	}
	// Deliberately no Stop: error delivery must shut the sequencer and
	// workers down on its own.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("pipeline leaked goroutines after error: %d before, %d after", before, got)
	}
}

func TestNextPrefersBufferedResultOverStop(t *testing.T) {
	// After the error path stops the pipeline itself, the buffered error
	// must still reach the consumer — never ErrStopped racing it away.
	r, paths := newMapReader(4)
	r.failOn = paths[0]
	p := New(r, RangeSampler(paths, 2, 0, 1), Options{Workers: 1, Depth: 1})
	// Let the failure land in the output queue and the self-Stop close
	// the stop channel before the consumer ever looks.
	deadline := time.Now().Add(2 * time.Second)
	for {
		select {
		case <-p.stop:
		default:
			if time.Now().After(deadline) {
				t.Fatal("pipeline never stopped itself after the error")
			}
			time.Sleep(time.Millisecond)
			continue
		}
		break
	}
	_, ok, err := p.Next()
	if ok || err == nil || errors.Is(err, ErrStopped) {
		t.Fatalf("Next after self-stop: ok=%v err=%v, want the injected read error", ok, err)
	}
}

func TestStopUnblocks(t *testing.T) {
	r, paths := newMapReader(8)
	r.delay = 50 * time.Millisecond
	p := New(r, RangeSampler(paths, 2, 0, 1), Options{Workers: 1, Depth: 1})
	done := make(chan error, 1)
	go func() {
		for {
			_, ok, err := p.Next()
			if err != nil || !ok {
				done <- err
				return
			}
		}
	}()
	time.Sleep(5 * time.Millisecond)
	p.Stop()
	p.Stop() // idempotent
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, ErrStopped) {
			t.Fatalf("unexpected error %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("consumer did not unblock after Stop")
	}
}

func TestDegenerateSamplers(t *testing.T) {
	r, _ := newMapReader(4)
	p := New(r, RangeSampler(nil, 2, 0, 1), Options{})
	if _, ok, err := p.Next(); ok || err != nil {
		t.Fatalf("empty sampler: ok=%v err=%v", ok, err)
	}
	p.Stop()
	if s := RangeSampler([]string{"a"}, 0, 0, 1); s != nil {
		if _, ok := s(0); ok {
			t.Fatal("zero batch size should yield nothing")
		}
	}
}
