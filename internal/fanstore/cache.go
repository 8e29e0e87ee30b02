package fanstore

import (
	"container/list"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"fanstore/internal/decomp"
	"fanstore/internal/metrics"
	"fanstore/internal/obs"
	"fanstore/internal/trace"
)

// Policy selects the cache replacement strategy. The paper argues (§IV-C3)
// that because every training file has identical access probability each
// epoch, recency carries no signal — so FanStore uses FIFO, modified to
// never evict an entry that an open file descriptor still references.
// The other policies exist for the ablation benchmarks.
type Policy int

const (
	// FIFO evicts the oldest unpinned entry (the paper's policy).
	FIFO Policy = iota
	// LRU evicts the least recently used unpinned entry.
	LRU
	// Immediate drops entries as soon as their reference count hits
	// zero (the paper's minimum-RAM reading: "the cache entry is
	// released if the counter of a file is zero").
	Immediate
)

func (p Policy) String() string {
	switch p {
	case FIFO:
		return "fifo"
	case LRU:
		return "lru"
	case Immediate:
		return "immediate"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// cacheEntry is one decompressed file in the shared memory pool.
type cacheEntry struct {
	path string
	data []byte
	refs int
	elem *list.Element
	// prefetched marks an entry staged by InsertIdle that has not been
	// acquired yet; the first Acquire counts it as a prefetched open.
	prefetched bool
	// owned marks data as a decomp buffer-pool buffer the cache must
	// recycle when the entry is removed with no readers left. Buffers
	// the cache does not own (written files, test fixtures) are never
	// recycled.
	owned bool
	// fidelity is the layer count this entry's bytes were decoded at
	// (FidelityFull for unlayered objects and full decodes). A reader
	// needing more layers treats the entry as a miss and upgrades it in
	// place; a reader needing fewer shares it as-is.
	fidelity uint8
}

// CacheStats reports cache behaviour for tests and benchmarks.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Used      int64
	Entries   int
	// Pinned is the number of entries with live references. Outside an
	// open file's lifetime it must be 0 — growth here means a pin leak.
	Pinned int
	// PinnedBytes is the byte total of pinned entries — capacity the
	// replacement policy cannot reclaim until readers close.
	PinnedBytes int64
	// StagedBytes is the byte total of prefetched entries nobody has
	// acquired yet — the epoch planner's admission control bounds it.
	StagedBytes int64
	// DoubleReleases counts Release calls with no pin to release — a
	// caller bug (the pool tolerates it rather than corrupting shared
	// state, but surfaces it here so unpin bugs stop being masked).
	DoubleReleases int64
}

// cacheShard is one stripe of the cache: its own lock, entry table,
// eviction list, and capacity slice. Entries never move between shards
// (a path's shard is a pure function of its hash), so every pin/evict
// invariant holds shard-locally.
type cacheShard struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	entries  map[string]*cacheEntry
	order    *list.List // eviction order: front = next victim
}

// Cache is the thread-safe decompressed-data pool of Fig. 4: a hash table
// tracking open files and their reference counts, with pinned-aware
// replacement. It deliberately uses a small capacity: the training
// program itself is memory-hungry (§IV-C3).
//
// The table is striped into power-of-two shards keyed by path hash, so
// concurrent I/O threads stop serializing on one lock; aggregate
// used/entries/pinned are maintained incrementally with atomics so
// Acquire/Release/Stats never scan.
type Cache struct {
	shards   []cacheShard
	mask     uint32
	policy   Policy
	capacity int64 // aggregate byte bound across all shards

	used    atomic.Int64
	entries atomic.Int64
	pins    atomic.Int64 // entries with refs > 0
	pinnedB atomic.Int64 // bytes held by entries with refs > 0
	staged  atomic.Int64 // bytes staged by InsertIdle, not yet acquired

	// Counters are registry-backed ("fanstore.cache.*") once instrument
	// is called; until then they are private unregistered instruments,
	// so a standalone Cache still counts correctly.
	hits, misses, evictions        *metrics.Counter
	prefetchedHits, doubleReleases *metrics.Counter
	tracer                         *trace.Tracer

	// events, when set, receives an eviction-pressure event once per
	// evictionPressureStride evictions (the first eviction also fires,
	// marking the onset of pressure). nil keeps the hot path inert.
	events   *obs.EventLog
	evictSeq atomic.Int64
}

// evictionPressureStride rate-limits eviction-pressure events: one per
// this many evictions, so a thrashing cache reports pressure without
// flooding the bounded event ring.
const evictionPressureStride = 1024

// minShardBytes is the smallest capacity slice worth striping: below it
// a single entry could overflow its shard and thrash, so shard count is
// reduced until every slice clears this floor (a tiny benchmark cache
// gets exactly one shard — the old single-lock semantics).
const minShardBytes = 4 << 20

// NewCache builds a cache bounded to capacity bytes of decompressed data
// with an automatic shard count (sized to GOMAXPROCS, reduced for small
// capacities). Pinned entries may transiently exceed the bound (they
// cannot be evicted); the excess drains as files close.
func NewCache(capacity int64, policy Policy) *Cache {
	return NewCacheShards(capacity, policy, 0)
}

// NewCacheShards is NewCache with an explicit shard count, rounded up to
// a power of two (<=0 selects automatically). Capacity is striped across
// the shards; each shard enforces its slice independently, so with
// uneven path distribution eviction can begin slightly before the
// aggregate bound is reached — never after.
func NewCacheShards(capacity int64, policy Policy, shards int) *Cache {
	if shards <= 0 {
		shards = 1
		for shards < runtime.GOMAXPROCS(0) && shards < 64 {
			shards <<= 1
		}
		for shards > 1 && capacity/int64(shards) < minShardBytes {
			shards >>= 1
		}
	} else {
		n := 1
		for n < shards && n < 1<<16 {
			n <<= 1
		}
		shards = n
	}
	c := &Cache{
		shards:   make([]cacheShard, shards),
		mask:     uint32(shards - 1),
		policy:   policy,
		capacity: capacity,
	}
	per := capacity / int64(shards)
	rem := capacity % int64(shards)
	for i := range c.shards {
		sh := &c.shards[i]
		sh.capacity = per
		if int64(i) < rem {
			sh.capacity++
		}
		sh.entries = make(map[string]*cacheEntry)
		sh.order = list.New()
	}
	c.instrument(nil, nil)
	return c
}

// instrument re-homes the cache's counters in reg ("fanstore.cache.*")
// and attaches a tracer for eviction events. Mount calls it before the
// cache sees any traffic; calling it later would orphan prior counts.
func (c *Cache) instrument(reg *metrics.Registry, tr *trace.Tracer) {
	c.hits = reg.Counter("fanstore.cache.hits")
	c.misses = reg.Counter("fanstore.cache.misses")
	c.evictions = reg.Counter("fanstore.cache.evictions")
	c.prefetchedHits = reg.Counter("fanstore.cache.prefetched_opens")
	c.doubleReleases = reg.Counter("fanstore.cache.double_releases")
	c.tracer = tr
}

// setEvents attaches the ops-plane event log for eviction-pressure
// reporting. nil (the default) disables it at zero cost.
func (c *Cache) setEvents(ev *obs.EventLog) { c.events = ev }

// NumShards reports the shard count (test and benchmark hook).
func (c *Cache) NumShards() int { return len(c.shards) }

// shard maps a path to its stripe with an inline FNV-1a hash (the
// allocation-free path of the cache-hit gate).
func (c *Cache) shard(path string) *cacheShard {
	h := uint32(2166136261)
	for i := 0; i < len(path); i++ {
		h = (h ^ uint32(path[i])) * 16777619
	}
	return &c.shards[h&c.mask]
}

// Acquire pins and returns the cached decompressed data for path if its
// fidelity is at least min (FidelityFull: the exact bytes; 1: whatever
// level is resident — the upgrade path grabs its base that way),
// reporting the entry's level. An entry below min is a miss (not pinned):
// the caller fetches or upgrades. The caller must Release once per
// successful Acquire.
func (c *Cache) Acquire(path string, min uint8) ([]byte, uint8, bool) {
	sh := c.shard(path)
	sh.mu.Lock()
	e, ok := sh.entries[path]
	if !ok || e.fidelity < min {
		sh.mu.Unlock()
		c.misses.Inc()
		return nil, 0, false
	}
	wasPrefetched := c.pinLocked(e)
	if c.policy == LRU {
		sh.order.MoveToBack(e.elem)
	}
	data, fid := e.data, e.fidelity
	sh.mu.Unlock()
	c.hits.Inc()
	if wasPrefetched {
		c.prefetchedHits.Inc()
	}
	return data, fid, true
}

// pinLocked takes one reference on a resident entry. The first reader
// of a staged entry consumes its staged-bytes credit; wasPrefetched
// reports that, so the caller counts a prefetched open once unlocked.
func (c *Cache) pinLocked(e *cacheEntry) (wasPrefetched bool) {
	if e.refs == 0 {
		c.pins.Add(1)
		c.pinnedB.Add(int64(len(e.data)))
	}
	e.refs++
	if e.prefetched {
		e.prefetched = false
		c.staged.Add(-int64(len(e.data)))
		return true
	}
	return false
}

// Contains reports whether path is cached at fidelity >= min, without
// pinning it or counting a hit/miss (the prefetcher uses it to skip
// staged work).
func (c *Cache) Contains(path string, min uint8) bool {
	sh := c.shard(path)
	sh.mu.Lock()
	e, ok := sh.entries[path]
	ok = ok && e.fidelity >= min
	sh.mu.Unlock()
	return ok
}

// Insert adds data decoded at fidelity fid for path pinned once (refs=1)
// and returns the canonical buffer (an existing entry wins races between
// two openers decompressing the same file). The caller must Release it.
// owned marks data as drawn from the decomp buffer pool: ownership
// transfers to the cache, which recycles it when the entry is removed
// with no readers, or immediately when an existing entry wins. When the
// path is already cached at a lower fidelity the entry is upgraded in
// place: the new bytes become canonical for future readers while current
// readers keep the buffer they pinned.
func (c *Cache) Insert(path string, data []byte, owned bool, fid uint8) []byte {
	sh := c.shard(path)
	sh.mu.Lock()
	if e, ok := sh.entries[path]; ok {
		// Another I/O thread decompressed (or the prefetcher staged)
		// this file first; share its entry. A staged entry acquired
		// here counts as a prefetched open, same as via Acquire. Pin
		// before any fidelity upgrade — a pinned entry cannot be chosen
		// as an eviction victim by the capacity check the upgrade runs.
		wasPrefetched := c.pinLocked(e)
		if e.fidelity < fid {
			// Fidelity upgrade in place: swap the canonical bytes.
			c.replaceLocked(sh, e, data, owned, fid)
			owned = false // ownership transferred to the cache
		}
		canonical := e.data
		sh.mu.Unlock()
		c.hits.Inc()
		if wasPrefetched {
			c.prefetchedHits.Inc()
		}
		if owned {
			decomp.PutBuf(data) // the losing duplicate is dead
		}
		return canonical
	}
	e := &cacheEntry{path: path, data: data, refs: 1, owned: owned, fidelity: fid}
	e.elem = sh.order.PushBack(e)
	sh.entries[path] = e
	sh.used += int64(len(data))
	c.used.Add(int64(len(data)))
	c.entries.Add(1)
	c.pins.Add(1)
	c.pinnedB.Add(int64(len(data)))
	c.evictLocked(sh)
	sh.mu.Unlock()
	return data
}

// replaceLocked swaps an entry's bytes for a higher-fidelity decode while
// preserving every accounting invariant. Readers holding the old buffer
// keep it: a pinned buffer is never recycled mid-upgrade (it is orphaned
// to the garbage collector instead), only an unreferenced owned buffer
// returns to the pool. Pinned/staged byte totals shift by the size delta
// so the eventual Release/Acquire pairs still balance against the new
// length.
func (c *Cache) replaceLocked(sh *cacheShard, e *cacheEntry, data []byte, owned bool, fid uint8) {
	delta := int64(len(data)) - int64(len(e.data))
	if e.refs > 0 {
		c.pinnedB.Add(delta)
	}
	if e.prefetched {
		c.staged.Add(delta)
	}
	sh.used += delta
	c.used.Add(delta)
	if e.owned && e.refs == 0 {
		decomp.PutBuf(e.data)
	}
	e.data = data
	e.owned = owned
	e.fidelity = fid
	if sh.used > sh.capacity {
		c.evictLocked(sh)
	}
}

// InsertIdle stages data decoded at fidelity fid for path unpinned
// (refs=0), for the look-ahead prefetcher: the entry is immediately
// evictable, so a canceled epoch cannot wedge the pool with pins nobody
// will release, and the first Acquire of it is counted as a prefetched
// open. An existing entry of equal or higher fidelity wins (nothing is
// replaced, and an owned duplicate is recycled immediately); a
// lower-fidelity one is upgraded in place, keeping its pin/staged state.
// Reports whether the data was staged. owned is as for Insert.
func (c *Cache) InsertIdle(path string, data []byte, owned bool, fid uint8) bool {
	sh := c.shard(path)
	sh.mu.Lock()
	if e, ok := sh.entries[path]; ok {
		if e.fidelity >= fid {
			sh.mu.Unlock()
			if owned {
				decomp.PutBuf(data)
			}
			return false
		}
		c.replaceLocked(sh, e, data, owned, fid)
		sh.mu.Unlock()
		return true
	}
	e := &cacheEntry{path: path, data: data, prefetched: true, owned: owned, fidelity: fid}
	e.elem = sh.order.PushBack(e)
	sh.entries[path] = e
	sh.used += int64(len(data))
	c.used.Add(int64(len(data)))
	c.entries.Add(1)
	c.staged.Add(int64(len(data)))
	c.evictLocked(sh)
	sh.mu.Unlock()
	return true
}

// Release unpins one reference. With the Immediate policy the entry is
// dropped at refs==0; otherwise it stays until capacity pressure.
func (c *Cache) Release(path string) {
	sh := c.shard(path)
	sh.mu.Lock()
	e, ok := sh.entries[path]
	if !ok || e.refs == 0 {
		sh.mu.Unlock()
		// Double release is a caller bug; tolerate it rather than
		// corrupting the pool shared by all I/O threads, but count it
		// so the bug is visible in CacheStats.
		c.doubleReleases.Inc()
		return
	}
	e.refs--
	if e.refs == 0 {
		c.pins.Add(-1)
		c.pinnedB.Add(-int64(len(e.data)))
		if c.policy == Immediate {
			c.removeLocked(sh, e)
		}
	}
	if sh.used > sh.capacity {
		c.evictLocked(sh)
	}
	sh.mu.Unlock()
}

// evictLocked removes unpinned entries in policy order until the shard
// is within its capacity slice.
func (c *Cache) evictLocked(sh *cacheShard) {
	el := sh.order.Front()
	for sh.used > sh.capacity && el != nil {
		next := el.Next()
		e := el.Value.(*cacheEntry)
		if e.refs == 0 { // never evict a file an open FD is reading
			c.removeLocked(sh, e)
			c.evictions.Inc()
			c.tracer.Event(trace.OpEvict, e.path, trace.OutcomeNone)
			if c.events.Enabled() {
				if seq := c.evictSeq.Add(1); seq%evictionPressureStride == 1 {
					c.events.Emitf(obs.EvEvictionPressure, obs.SevWarn,
						"cache under pressure: %d evictions so far (capacity=%d B, pinned=%d B)",
						c.evictions.Value(), c.capacity, c.pinnedB.Load())
				}
			}
		}
		el = next
	}
}

// removeLocked unlinks an entry and recycles its buffer if the cache
// owns it. Callers guarantee refs == 0: a pinned entry's buffer is
// still visible to a reader and must never reach the pool.
func (c *Cache) removeLocked(sh *cacheShard, e *cacheEntry) {
	sh.order.Remove(e.elem)
	delete(sh.entries, e.path)
	sh.used -= int64(len(e.data))
	c.used.Add(-int64(len(e.data)))
	c.entries.Add(-1)
	if e.prefetched {
		// A staged entry evicted unread: its admission credit returns
		// (the planner may restage it; the consumer will fetch on demand).
		c.staged.Add(-int64(len(e.data)))
	}
	if e.owned {
		decomp.PutBuf(e.data)
		e.data = nil
	}
}

// Stats snapshots the cache counters. Aggregates are read from the
// incrementally maintained atomics — no shard lock, no entry scan — so
// a stats poll never stalls the data path.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Hits:           c.hits.Value(),
		Misses:         c.misses.Value(),
		Evictions:      c.evictions.Value(),
		Used:           c.used.Load(),
		Entries:        int(c.entries.Load()),
		Pinned:         int(c.pins.Load()),
		PinnedBytes:    c.pinnedB.Load(),
		StagedBytes:    c.staged.Load(),
		DoubleReleases: c.doubleReleases.Value(),
	}
}

// Capacity reports the aggregate byte bound across all shards.
func (c *Cache) Capacity() int64 { return c.capacity }

// PinnedBytes reports the byte total of entries with live references.
func (c *Cache) PinnedBytes() int64 { return c.pinnedB.Load() }

// StagedBytes reports the byte total of prefetched entries that have not
// been acquired yet — staged-but-unread data awaiting its first open.
func (c *Cache) StagedBytes() int64 {
	return c.staged.Load()
}

// Headroom reports the capacity still available for new staged data:
// capacity minus pinned minus already-staged bytes. The epoch planner's
// admission control never stages beyond it — staging more would evict
// staged-but-unread entries and turn the plan against itself. Unpinned
// already-read entries count as headroom because they are evictable the
// moment pressure arrives.
//
// The three atomics are read independently while the data path mutates
// them, so the sampled sum can transiently exceed capacity — a pin can
// land before the staged-byte decrement of the same Acquire is visible.
// The clamp keeps such a sample at zero instead of letting the
// subtraction go negative, which (cast or compared carelessly upstream)
// disabled the scheduler's admission gate entirely.
func (c *Cache) Headroom() int64 {
	h := c.capacity - c.pinnedB.Load() - c.staged.Load()
	if h < 0 {
		return 0
	}
	return h
}

// pinned reports the number of entries with live references (test hook).
func (c *Cache) pinned() int {
	return int(c.pins.Load())
}

// entryFidelity reports the cached fidelity level of path (test hook).
func (c *Cache) entryFidelity(path string) (uint8, bool) {
	sh := c.shard(path)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.entries[path]
	if !ok {
		return 0, false
	}
	return e.fidelity, true
}
