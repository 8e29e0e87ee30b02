package prefetch

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"fanstore/internal/decomp"
)

// poolReader serves every file in a buffer drawn from decomp.GetBuf and
// filled with the file's byte, and counts how many of the buffers it
// drew it had handed out before.
type poolReader struct {
	size  int
	fill  map[string]byte
	mu    sync.Mutex
	seen  map[*byte]bool
	reads int
	reuse int
}

func (r *poolReader) ReadFile(path string) ([]byte, error) {
	b := decomp.GetBuf(r.size)[:r.size]
	for i := range b {
		b[i] = r.fill[path]
	}
	r.mu.Lock()
	r.reads++
	if r.seen[&b[0]] {
		r.reuse++
	}
	r.seen[&b[0]] = true
	r.mu.Unlock()
	return b, nil
}

// TestNextRecyclesPreviousBatch pins the delivery contract: once Next
// has returned batch i+1, batch i's Data entries are nil (a consumer that
// kept the old Batch sees nils, not another file's bytes), every
// delivered file holds its own bytes, and a Reader that draws from
// decomp.GetBuf gets its own buffers back in steady state.
func TestNextRecyclesPreviousBatch(t *testing.T) {
	const files, batch = 200, 4
	r := &poolReader{size: 8 << 10, fill: make(map[string]byte), seen: make(map[*byte]bool)}
	paths := make([]string, files)
	for i := range paths {
		paths[i] = fmt.Sprintf("f%03d", i)
		r.fill[paths[i]] = byte(i)
	}
	p := New(r, RangeSampler(paths, batch, 0, 1), Options{Workers: 2, Depth: 2})
	defer p.Stop()
	var prev Batch
	for {
		b, ok, err := p.Next()
		if err != nil {
			t.Fatal(err)
		}
		for i, data := range prev.Data {
			if data != nil {
				t.Fatalf("batch %d entry %d still holds a buffer after the next Next", prev.Index, i)
			}
		}
		if !ok {
			break
		}
		for i, data := range b.Data {
			for _, c := range data {
				if c != r.fill[b.Paths[i]] {
					t.Fatalf("batch %d: %s holds byte %d, want %d", b.Index, b.Paths[i], c, r.fill[b.Paths[i]])
				}
			}
		}
		prev = b
	}
	// The first few batches draw fresh buffers; after that the pool serves
	// the ones Next handed back (the race detector drops a share of
	// sync.Pool puts, so this asks for half, not all).
	if r.reuse*2 < r.reads {
		t.Fatalf("%d of %d reads got a buffer back from the pool, want at least half", r.reuse, r.reads)
	}
}

// TestStopRecyclesLastBatch pins Stop's half of the delivery contract.
// A consumer that reads an epoch's iterations and then stops (as every
// training loop's deferred Stop does) hands the last batch back: its
// Data entries are nil, and a reader drawing from decomp.GetBuf gets
// those buffers back. When the reader fails mid-epoch the pipeline shuts
// itself down, and that shutdown must not recycle the batch the consumer
// still holds: while other workers keep reading into pooled buffers the
// consumer checks every byte of each batch after giving the error time
// to arrive, and make overlap runs the row under -race twenty times.
func TestStopRecyclesLastBatch(t *testing.T) {
	const files, batch, size = 64, 4, 8 << 10
	for _, tc := range []struct {
		name    string
		workers int
		fail    int // file index the reader fails on, or -1
	}{
		{"end of epoch", 1, -1},
		{"reader fails mid-epoch", 4, 40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.fail < 0 && !raceDetectorEnabled {
				// One P: a Put lands where the next Get looks first.
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			}
			r := &poolReader{size: size, fill: make(map[string]byte), seen: make(map[*byte]bool)}
			paths := make([]string, files)
			for i := range paths {
				paths[i] = fmt.Sprintf("f%03d", i)
				r.fill[paths[i]] = byte(i)
			}
			var reader Reader = r
			if tc.fail >= 0 {
				reader = failingReader{r, paths[tc.fail]}
			}
			p := New(reader, RangeSampler(paths, batch, 0, 1), Options{Workers: tc.workers, Depth: 2})
			defer p.Stop()
			check := func(b Batch) {
				for i, data := range b.Data {
					for _, c := range data {
						if c != r.fill[b.Paths[i]] {
							t.Fatalf("batch %d: %s holds byte %d, want %d", b.Index, b.Paths[i], c, r.fill[b.Paths[i]])
						}
					}
				}
			}
			var last Batch
			for it := 0; it < SamplerIters(files, batch, 1); it++ {
				b, ok, err := p.Next()
				if err != nil {
					if tc.fail < 0 || it != tc.fail/batch {
						t.Fatalf("iteration %d: %v", it, err)
					}
					break
				}
				if !ok {
					t.Fatalf("epoch ended after %d iterations", it)
				}
				if tc.fail >= 0 {
					// The training step: long enough for the failing read
					// to reach the reorder stage and shut the pipeline
					// down while this batch is still being read.
					time.Sleep(200 * time.Microsecond)
				}
				check(b)
				last = b
			}
			held := make(map[*byte]bool, len(last.Data))
			for _, data := range last.Data {
				if data != nil {
					held[&data[0]] = true
				}
			}
			p.Stop()
			for i, data := range last.Data {
				if data != nil {
					t.Fatalf("batch %d entry %d still holds a buffer after Stop", last.Index, i)
				}
			}
			if tc.fail >= 0 || raceDetectorEnabled {
				return // workers may still draw from the pool; the race detector drops puts
			}
			// The pool also holds the batches Next handed back before, and
			// its per-P private slot is not last-in first-out: draw up to
			// every buffer the epoch used.
			for i := 0; i < files && len(held) > 0; i++ {
				b := decomp.GetBuf(size)
				delete(held, &b[:1][0])
			}
			if len(held) != 0 {
				t.Fatalf("%d of the last batch's %d buffers did not come back from the pool", len(held), batch)
			}
		})
	}
}

// failingReader is poolReader with one path that fails.
type failingReader struct {
	*poolReader
	fail string
}

func (f failingReader) ReadFile(path string) ([]byte, error) {
	if path == f.fail {
		return nil, fmt.Errorf("read %s: injected failure", path)
	}
	return f.poolReader.ReadFile(path)
}
