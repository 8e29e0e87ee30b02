package prefetch

import (
	"fmt"
	"sync"
	"testing"

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
