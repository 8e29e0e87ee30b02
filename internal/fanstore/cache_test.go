package fanstore

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestCacheAcquireInsertRelease(t *testing.T) {
	c := NewCache(1<<20, FIFO)
	if _, _, ok := c.Acquire("a", FidelityFull); ok {
		t.Fatal("empty cache should miss")
	}
	data := []byte("hello")
	got := c.Insert("a", data, false, FidelityFull)
	if !bytes.Equal(got, data) {
		t.Fatal("Insert should return the buffer")
	}
	d2, _, ok := c.Acquire("a", FidelityFull)
	if !ok || !bytes.Equal(d2, data) {
		t.Fatal("Acquire after Insert should hit")
	}
	c.Release("a")
	c.Release("a")
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestCacheInsertRace(t *testing.T) {
	// Two I/O threads decompress the same file; the second Insert must
	// adopt the first buffer so both FDs share one entry (Fig. 4).
	c := NewCache(1<<20, FIFO)
	first := c.Insert("f", []byte("one"), false, FidelityFull)
	second := c.Insert("f", []byte("two"), false, FidelityFull)
	if !bytes.Equal(second, first) {
		t.Fatal("second Insert must return the canonical buffer")
	}
	if c.pinned() != 1 {
		t.Fatalf("pinned = %d, want 1 entry (with 2 refs)", c.pinned())
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("entries = %d", st.Entries)
	}
}

func TestCacheFIFOEviction(t *testing.T) {
	c := NewCache(100, FIFO)
	for i := 0; i < 10; i++ {
		path := fmt.Sprintf("f%d", i)
		c.Insert(path, make([]byte, 30), false, FidelityFull)
		c.Release(path)
	}
	st := c.Stats()
	if st.Used > 100 {
		t.Fatalf("used %d exceeds capacity", st.Used)
	}
	// FIFO: the survivors must be the most recently inserted files.
	if _, _, ok := c.Acquire("f0", FidelityFull); ok {
		t.Fatal("oldest entry should have been evicted first")
	}
	if _, _, ok := c.Acquire("f9", FidelityFull); !ok {
		t.Fatal("newest entry should survive")
	}
	c.Release("f9")
	if st.Evictions == 0 {
		t.Fatal("expected evictions")
	}
}

func TestCacheNeverEvictsPinned(t *testing.T) {
	c := NewCache(100, FIFO)
	c.Insert("pinned", make([]byte, 80), false, FidelityFull) // stays pinned
	for i := 0; i < 5; i++ {
		p := fmt.Sprintf("x%d", i)
		c.Insert(p, make([]byte, 60), false, FidelityFull)
		c.Release(p)
	}
	if _, _, ok := c.Acquire("pinned", FidelityFull); !ok {
		t.Fatal("pinned entry was evicted")
	}
	c.Release("pinned")
	c.Release("pinned")
}

func TestCacheImmediatePolicy(t *testing.T) {
	c := NewCache(1<<20, Immediate)
	c.Insert("a", []byte("data"), false, FidelityFull)
	c.Release("a")
	if _, _, ok := c.Acquire("a", FidelityFull); ok {
		t.Fatal("immediate policy must drop at refs==0")
	}
	if st := c.Stats(); st.Used != 0 {
		t.Fatalf("used = %d after immediate release", st.Used)
	}
}

func TestCacheLRUPolicy(t *testing.T) {
	c := NewCache(100, LRU)
	c.Insert("a", make([]byte, 40), false, FidelityFull)
	c.Release("a")
	c.Insert("b", make([]byte, 40), false, FidelityFull)
	c.Release("b")
	// Touch a so b becomes the LRU victim.
	if _, _, ok := c.Acquire("a", FidelityFull); !ok {
		t.Fatal("a should be cached")
	}
	c.Release("a")
	c.Insert("c", make([]byte, 40), false, FidelityFull)
	c.Release("c")
	if _, _, ok := c.Acquire("b", FidelityFull); ok {
		t.Fatal("LRU should have evicted b")
	}
	if _, _, ok := c.Acquire("a", FidelityFull); !ok {
		t.Fatal("LRU should have kept a")
	}
	c.Release("a")
}

func TestCacheDoubleReleaseTolerated(t *testing.T) {
	c := NewCache(1<<20, FIFO)
	c.Insert("a", []byte("x"), false, FidelityFull)
	c.Release("a")
	c.Release("a") // bug in caller: must not panic or corrupt
	c.Release("nonexistent")
	st := c.Stats()
	if st.Entries > 1 {
		t.Fatalf("stats corrupted: %+v", st)
	}
	// Both stray Releases must be surfaced, not silently swallowed.
	if st.DoubleReleases != 2 {
		t.Fatalf("double releases = %d, want 2", st.DoubleReleases)
	}
	if c.Stats().Pinned != 0 {
		t.Fatal("stray releases must not leave phantom pins")
	}
}

func TestCacheInsertIdleStaysEvictable(t *testing.T) {
	c := NewCache(100, FIFO)
	if !c.InsertIdle("a", make([]byte, 60), false, FidelityFull) {
		t.Fatal("InsertIdle into empty cache must stage")
	}
	if st := c.Stats(); st.Pinned != 0 {
		t.Fatalf("idle entry is pinned: %+v", st)
	}
	// An existing entry wins; nothing is replaced or re-staged.
	if c.InsertIdle("a", make([]byte, 60), false, FidelityFull) {
		t.Fatal("InsertIdle must not replace an existing entry")
	}
	// Unpinned staged entries yield to capacity pressure immediately.
	c.Insert("b", make([]byte, 60), false, FidelityFull)
	if c.Contains("a", 1) {
		t.Fatal("idle entry survived eviction pressure from a pinned insert")
	}
	c.Release("b")
	// The first Acquire of a staged entry counts as a prefetched open;
	// later acquires are plain hits.
	c.InsertIdle("p", []byte("staged"), false, FidelityFull)
	if _, _, ok := c.Acquire("p", FidelityFull); !ok {
		t.Fatal("staged entry must be acquirable")
	}
	c.Release("p")
	if _, _, ok := c.Acquire("p", FidelityFull); !ok {
		t.Fatal("entry must survive under FIFO")
	}
	c.Release("p")
	if got := c.prefetchedHits.Value(); got != 1 {
		t.Fatalf("prefetched opens = %d, want 1", got)
	}
}

// TestCacheInvariantsQuick property-tests the capacity invariant: after
// any sequence of insert/acquire/release operations where every pin is
// released, used never exceeds capacity.
func TestCacheInvariantsQuick(t *testing.T) {
	type op struct {
		Key     uint8
		Acquire bool
	}
	f := func(ops []op) bool {
		c := NewCache(500, FIFO)
		pins := make(map[string]int)
		for _, o := range ops {
			key := fmt.Sprintf("k%d", o.Key%16)
			if o.Acquire {
				if _, _, ok := c.Acquire(key, FidelityFull); ok {
					pins[key]++
				}
			} else {
				c.Insert(key, make([]byte, 100), false, FidelityFull)
				pins[key]++
			}
		}
		for k, n := range pins {
			for i := 0; i < n; i++ {
				c.Release(k)
			}
		}
		st := c.Stats()
		return st.Used <= 500 && st.Used >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := NewCache(10<<10, FIFO)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", (g*31+i)%20)
				if data, _, ok := c.Acquire(key, FidelityFull); ok {
					if len(data) != 512 {
						t.Errorf("corrupt entry for %s", key)
					}
					c.Release(key)
				} else {
					c.Insert(key, make([]byte, 512), false, FidelityFull)
					c.Release(key)
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Used > 10<<10 {
		t.Fatalf("capacity exceeded after quiesce: %+v", st)
	}
}

func TestPolicyString(t *testing.T) {
	for p, want := range map[Policy]string{FIFO: "fifo", LRU: "lru", Immediate: "immediate"} {
		if p.String() != want {
			t.Fatalf("%d.String() = %q", int(p), p.String())
		}
	}
}

// TestCacheHeadroomAccounting pins the deterministic definition of
// Headroom: capacity minus pinned minus staged bytes, never negative.
// Pinning past capacity (allowed — pinned entries cannot be evicted)
// must clamp to zero rather than go negative, which upstream admission
// code would misread as unlimited room.
func TestCacheHeadroomAccounting(t *testing.T) {
	c := NewCacheShards(1000, FIFO, 1)
	if h := c.Headroom(); h != 1000 {
		t.Fatalf("empty cache headroom = %d, want 1000", h)
	}
	c.Insert("a", make([]byte, 400), false, FidelityFull) // pinned
	if h := c.Headroom(); h != 600 {
		t.Fatalf("after 400 pinned, headroom = %d, want 600", h)
	}
	c.InsertIdle("b", make([]byte, 300), false, FidelityFull) // staged
	if h := c.Headroom(); h != 300 {
		t.Fatalf("after 300 staged, headroom = %d, want 300", h)
	}
	// Pin two more large entries: pinned total 1200 > capacity. The
	// subtraction would be negative; Headroom must clamp.
	c.Insert("c", make([]byte, 400), false, FidelityFull)
	c.Insert("d", make([]byte, 400), false, FidelityFull)
	if h := c.Headroom(); h != 0 {
		t.Fatalf("overpinned cache headroom = %d, want 0", h)
	}
	st := c.Stats()
	if st.PinnedBytes != 1200 || st.StagedBytes > 300 {
		t.Fatalf("accounting drifted: %+v", st)
	}
	// Releasing the pins restores positive headroom.
	c.Release("a")
	c.Release("c")
	c.Release("d")
	if h := c.Headroom(); h < 0 {
		t.Fatalf("headroom went negative after release: %d", h)
	}
}

// TestCacheHeadroomNeverNegativeUnderStorm races Acquire/Release/
// InsertIdle against a Headroom poller. A pin can land before the same
// Acquire's staged-byte decrement is visible, so the raw subtraction
// transiently exceeds capacity; the clamp must keep every sample >= 0.
// Run with -race.
func TestCacheHeadroomNeverNegativeUnderStorm(t *testing.T) {
	c := NewCacheShards(4<<10, FIFO, 2)
	stop := make(chan struct{})
	var bad atomic.Int64
	var pollers sync.WaitGroup
	for p := 0; p < 2; p++ {
		pollers.Add(1)
		go func() {
			defer pollers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if h := c.Headroom(); h < 0 {
					bad.Add(1)
				}
			}
		}()
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				key := fmt.Sprintf("k%d", (g*7+i)%12)
				if i%3 == 0 {
					c.InsertIdle(key, make([]byte, 512), false, FidelityFull)
				}
				if _, _, ok := c.Acquire(key, FidelityFull); ok {
					c.Release(key)
				} else {
					c.Insert(key, make([]byte, 512), false, FidelityFull)
					c.Release(key)
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	pollers.Wait()
	if n := bad.Load(); n != 0 {
		t.Fatalf("Headroom sampled negative %d times", n)
	}
	if h := c.Headroom(); h < 0 || h > 4<<10 {
		t.Fatalf("quiesced headroom %d out of [0, %d]", h, 4<<10)
	}
}
