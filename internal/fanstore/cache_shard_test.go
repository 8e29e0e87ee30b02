package fanstore

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"fanstore/internal/decomp"
)

// TestCacheShardRounding: explicit shard counts round up to a power of
// two; automatic selection collapses tiny caches to one shard (the old
// single-lock semantics, so a 100-byte test cache still behaves exactly
// as before sharding).
func TestCacheShardRounding(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{
		{1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {16, 16}, {17, 32},
	} {
		c := newStripedCache(1<<30, FIFO, tc.ask)
		if c.NumShards() != tc.want {
			t.Fatalf("shards=%d: got %d, want %d", tc.ask, c.NumShards(), tc.want)
		}
	}
	if got := NewCache(100, FIFO).NumShards(); got != 1 {
		t.Fatalf("tiny cache auto-sharded to %d shards, want 1", got)
	}
}

// TestCacheShardedCapacityAccounting: aggregate Used/Entries/Pinned must
// stay exact across shards through insert/acquire/release/evict churn,
// and the capacity bound must hold (within one shard's pinned slack)
// once everything is released.
func TestCacheShardedCapacityAccounting(t *testing.T) {
	const per = 1 << 10
	c := newStripedCache(64*per, FIFO, 8)
	paths := make([]string, 256)
	for i := range paths {
		paths[i] = fmt.Sprintf("file-%04d", i)
		c.Insert(oid(paths[i]), make([]byte, per), false)
	}
	st := c.Stats()
	if st.Pinned != len(paths) {
		t.Fatalf("pinned = %d, want %d", st.Pinned, len(paths))
	}
	if st.Used != int64(st.Entries*per) {
		t.Fatalf("used %d inconsistent with %d entries of %d bytes", st.Used, st.Entries, per)
	}
	for _, p := range paths {
		c.Release(oid(p))
	}
	st = c.Stats()
	if st.Pinned != 0 {
		t.Fatalf("pinned = %d after releasing everything", st.Pinned)
	}
	if st.Used > 64*per {
		t.Fatalf("used %d exceeds capacity %d after release", st.Used, 64*per)
	}
	if st.Used != int64(st.Entries*per) {
		t.Fatalf("used %d inconsistent with %d entries", st.Used, st.Entries)
	}
	if st.Evictions == 0 {
		t.Fatal("eviction pressure never fired")
	}
}

// orderLen counts the entries in the shard's two eviction-order
// structures. Callers hold sh.mu.
func (sh *cacheShard) orderLen() int {
	n := len(sh.far)
	for e := sh.idle.next; e != &sh.idle; e = e.next {
		n++
	}
	return n
}

// TestCacheShardedConcurrent hammers a small sharded cache from many
// goroutines (run under -race by make ci) and then checks every
// aggregate invariant: no pin leaks, no used-bytes drift against a
// full recount, and no entry evicted while pinned.
func TestCacheShardedConcurrent(t *testing.T) {
	const per = 512
	c := newStripedCache(32*per, LRU, 4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				p := fmt.Sprintf("file-%03d", (g*13+i)%64)
				if data, ok := c.Acquire(oid(p)); ok {
					if len(data) != per {
						t.Errorf("%s: pinned entry has %d bytes", p, len(data))
					}
					c.Release(oid(p))
					continue
				}
				got := c.Insert(oid(p), make([]byte, per), false)
				if len(got) != per {
					t.Errorf("%s: canonical buffer has %d bytes", p, len(got))
				}
				c.Release(oid(p))
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Pinned != 0 {
		t.Fatalf("pin leak: %d pinned after all goroutines released", st.Pinned)
	}
	var used int64
	entries := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		var shUsed int64
		resident := 0
		for _, e := range sh.entries {
			if e == nil {
				continue
			}
			resident++
			shUsed += int64(len(e.data))
			if e.refs != 0 {
				t.Fatalf("shard %d: #%d still pinned", i, e.id)
			}
		}
		if n := sh.orderLen(); n != resident {
			t.Fatalf("shard %d: eviction order holds %d != table %d", i, n, resident)
		}
		if shUsed != sh.used {
			t.Fatalf("shard %d: recount %d != incremental %d", i, shUsed, sh.used)
		}
		used += shUsed
		entries += resident
		sh.mu.Unlock()
	}
	if used != st.Used || entries != st.Entries {
		t.Fatalf("aggregate drift: recount (%d bytes, %d entries) vs stats (%d, %d)",
			used, entries, st.Used, st.Entries)
	}
}

// TestCacheInsertRaceCountsPrefetchedOpen: when a demand open loses the
// insert race to an entry the prefetcher staged, that open was served by
// prefetched data and must be accounted exactly like an Acquire of it —
// prefetched cleared, one prefetched open counted.
func TestCacheInsertRaceCountsPrefetchedOpen(t *testing.T) {
	c := NewCache(1<<20, FIFO)
	staged := []byte("staged-by-prefetcher")
	if !c.InsertIdle(oid("f"), staged, false) {
		t.Fatal("stage failed")
	}
	got := c.Insert(oid("f"), []byte("loser-duplicate"), false)
	if string(got) != string(staged) {
		t.Fatal("insert race did not return the canonical staged buffer")
	}
	if n := c.prefetchedHits.Value(); n != 1 {
		t.Fatalf("prefetchedOpens = %d, want 1 (insert-race open not counted)", n)
	}
	c.Release(oid("f"))
	// A second open of the same (no longer prefetched) entry counts a
	// plain hit, not another prefetched open.
	if _, ok := c.Acquire(oid("f")); !ok {
		t.Fatal("entry vanished")
	}
	c.Release(oid("f"))
	if n := c.prefetchedHits.Value(); n != 1 {
		t.Fatalf("prefetchedOpens = %d after plain re-open, want 1", n)
	}
}

// samePtr reports whether two non-empty-capacity buffers share a backing
// array start.
func samePtr(a, b []byte) bool {
	return &a[:1][0] == &b[:1][0]
}

// TestCacheOwnedBufferRecycledOnEvict: an owned entry's buffer must come
// back out of the decomp pool once the entry is removed with no readers.
// GOMAXPROCS is pinned to 1 so the sync.Pool private slot makes
// Put-then-Get deterministic.
func TestCacheOwnedBufferRecycledOnEvict(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race detector randomizes sync.Pool; pool determinism untestable")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	c := newStripedCache(1<<20, Immediate, 1)
	buf := decomp.GetBuf(8 << 10)
	buf = append(buf, make([]byte, 8<<10)...)
	c.Insert(oid("f"), buf, true)
	c.Release(oid("f")) // Immediate: refs==0 drops the entry and recycles
	if c.Contains(oid("f")) {
		t.Fatal("immediate policy kept the entry")
	}
	got := decomp.GetBuf(8 << 10)
	if !samePtr(got, buf) {
		t.Fatal("owned evicted buffer did not return through the pool")
	}
	decomp.PutBuf(got)
}

// TestCacheInsertRaceLoserRecycled: the duplicate buffer that loses an
// owned insert race is dead and must recycle immediately.
func TestCacheInsertRaceLoserRecycled(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race detector randomizes sync.Pool; pool determinism untestable")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	c := newStripedCache(1<<20, FIFO, 1)
	c.Insert(oid("f"), []byte("winner"), false)
	loser := decomp.GetBuf(8 << 10)
	loser = append(loser, make([]byte, 8<<10)...)
	if got := c.Insert(oid("f"), loser, true); samePtr(got, loser) {
		t.Fatal("losing duplicate became canonical")
	}
	back := decomp.GetBuf(8 << 10)
	if !samePtr(back, loser) {
		t.Fatal("losing duplicate was not recycled")
	}
	decomp.PutBuf(back)
}

// TestCachePinnedBufferNeverRecycled: a pinned owned entry survives
// eviction pressure, and its buffer must not be reachable through the
// pool while a reader still sees it.
func TestCachePinnedBufferNeverRecycled(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race detector randomizes sync.Pool; pool determinism untestable")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const size = 8 << 10
	c := newStripedCache(2*size, FIFO, 1) // room for two entries
	pinned := decomp.GetBuf(size)
	pinned = append(pinned, make([]byte, size)...)
	c.Insert(oid("pinned"), pinned, true) // stays pinned for the whole test
	for i := 0; i < 4; i++ {
		p := fmt.Sprintf("churn-%d", i)
		fill := decomp.GetBuf(size)
		fill = append(fill, make([]byte, size)...)
		c.Insert(oid(p), fill, true)
		c.Release(oid(p)) // unpinned: evictable under pressure
	}
	if _, ok := c.Acquire(oid("pinned")); !ok {
		t.Fatal("pinned entry was evicted under pressure")
	}
	c.Release(oid("pinned")) // the Acquire's pin; insert pin still held
	for i := 0; i < 16; i++ {
		b := decomp.GetBuf(size)
		if samePtr(b, pinned) {
			t.Fatal("pinned entry's buffer leaked into the pool")
		}
		defer decomp.PutBuf(b)
	}
}

// TestCacheHitZeroAlloc is the hot-path allocation gate: a cache-hit
// Acquire+Release pair must not allocate at all.
func TestCacheHitZeroAlloc(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race detector randomizes sync.Pool; pool determinism untestable")
	}
	c := newStripedCache(1<<20, FIFO, 8)
	c.Insert(oid("hot"), make([]byte, 1024), false)
	c.Release(oid("hot"))
	allocs := testing.AllocsPerRun(1000, func() {
		data, ok := c.Acquire(oid("hot"))
		if !ok || len(data) != 1024 {
			t.Fatal("lost the hot entry")
		}
		c.Release(oid("hot"))
	})
	if allocs != 0 {
		t.Fatalf("cache-hit Acquire+Release allocates %.1f objects/op, want 0", allocs)
	}
}
