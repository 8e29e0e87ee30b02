package fanstore

import (
	"container/heap"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"fanstore/internal/decomp"
	"fanstore/internal/metrics"
	"fanstore/internal/obs"
	"fanstore/internal/trace"
)

// Policy selects the replacement order among entries with no known next
// use. The paper argues (§IV-C3) that because every training file has
// identical access probability each epoch, recency carries no signal — so
// FanStore uses FIFO, modified to never evict an entry that an open file
// descriptor still references. That is an argument about a cache that does
// not know the future: once an epoch plan is installed (Expect) the entries
// it will read carry their position in it, and the one eviction rule is
// "unknown next use first, in Policy order; then the entry needed furthest
// ahead". With no plan every entry's next use is unknown and Policy alone
// decides. The other policies exist for the ablation benchmarks.
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

// noPos is the next use of an entry no installed plan will read: +∞.
const noPos = math.MaxInt64

// cacheEntry is one decompressed file in the shared memory pool. A
// removed entry goes on its shard's free list and is reused by the next
// insert, so a resident working set that turns over allocates none.
type cacheEntry struct {
	id   uint32
	data []byte
	refs int
	// pos is the entry's next use: its position in the installed plan
	// while the plan's read of it is still ahead (a protected entry: it is
	// unpinned, sits in its shard's heap at hidx and counts as staged), or
	// noPos (it sits in the shard's policy-ordered list between prev and
	// next). The first pin of a protected entry consumes its position.
	pos        int64
	prev, next *cacheEntry
	hidx       int
	// prefetched marks an entry staged by InsertIdle that has not been
	// acquired yet; the first Acquire counts it as a prefetched open.
	prefetched bool
	// owned marks data as a decomp buffer-pool buffer the cache must
	// recycle when the entry is removed with no readers left. Buffers
	// the cache does not own (written files, test fixtures) are never
	// recycled.
	owned bool
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
	// StagedBytes is the byte total of protected entries — staged by a
	// prefetch or retained for the installed plan, and not yet opened —
	// the epoch planner's admission control bounds it.
	StagedBytes int64
	// DoubleReleases counts Release calls with no pin to release — a
	// caller bug (the pool tolerates it rather than corrupting shared
	// state, but surfaces it here so unpin bugs stop being masked).
	DoubleReleases int64
}

// cacheShard is one stripe of the cache: its own lock, entry table,
// eviction order, capacity slice and slice of the installed plan. An
// object's shard is its ID modulo the shard count and its slot in the
// shard's tables the ID's remaining bits, so entries never move between
// shards and every pin/evict invariant holds shard-locally.
type cacheShard struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	// entries holds the resident entry of each slot, nil for none.
	entries []*cacheEntry
	// Eviction order: the entries with no known next use, in policy order
	// from idle.next (the next victim) around the ring, then the protected
	// entries, furthest position first. Intrusive links and an
	// index-tracked heap: moving an entry between the two allocates nothing.
	idle cacheEntry // ring sentinel
	far  farthest
	// plan is the position in the installed plan of each ID the plan has
	// not seen opened yet, 0 for none (positions start at 1).
	plan []int64
	// flights holds the flight producing each slot's object, nil for none:
	// concurrent producers of a not-yet-cached object — demand opens and
	// prefetch staging alike — share one fetch and decode (flight.go).
	flights []*flight
	// free holds removed entries for reuse, linked through next.
	free *cacheEntry
	// pinnedB and staged are the bytes this shard cannot give to a
	// newcomer: entries with live references, and protected ones. Written
	// under mu; atomic so Headroom and Stats read them without it.
	pinnedB, staged atomic.Int64
}

// farthest is a max-heap of protected entries by plan position.
type farthest []*cacheEntry

func (h farthest) Len() int           { return len(h) }
func (h farthest) Less(i, j int) bool { return h[i].pos > h[j].pos }
func (h farthest) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].hidx, h[j].hidx = i, j
}
func (h *farthest) Push(x any) {
	e := x.(*cacheEntry)
	e.hidx = len(*h)
	*h = append(*h, e)
}
func (h *farthest) Pop() any {
	old := *h
	e := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return e
}

// pushIdle appends e to the policy-ordered ring: the last to be evicted
// among the entries with no known next use.
func (sh *cacheShard) pushIdle(e *cacheEntry) {
	e.prev, e.next = sh.idle.prev, &sh.idle
	e.prev.next, sh.idle.prev = e, e
}

func unlinkIdle(e *cacheEntry) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

// Cache is the thread-safe decompressed-data pool of Fig. 4: a hash table
// tracking open files and their reference counts, with pinned-aware
// replacement. It deliberately uses a small capacity: the training
// program itself is memory-hungry (§IV-C3).
//
// Objects are named by the store's dense uint32 object IDs (Node
// resolves a path to its ID once, in lookup). The table is striped into
// power-of-two shards by the ID's low bits, so concurrent I/O threads
// stop serializing on one lock, and each shard indexes its entries and
// plan positions by the ID's high bits: no path is hashed here.
// Aggregate used/entries/pinned are maintained incrementally with
// atomics so Acquire/Release/Stats never scan.
type Cache struct {
	shards   []cacheShard
	mask     uint32
	shift    uint8 // log2 of the shard count: id>>shift is the slot
	policy   Policy
	capacity int64 // aggregate byte bound across all shards

	used     atomic.Int64
	entries  atomic.Int64
	pins     atomic.Int64 // entries with refs > 0
	retained atomic.Int64 // protected bytes no prefetch fetched: residents the plan kept
	// planEnd is the first position past every plan installed so far, so
	// positions grow across plans and an object the plan does not know is
	// stamped "after everything known". It starts at 1: 0 is "no position".
	planEnd atomic.Int64

	// Counters are registry-backed ("fanstore.cache.*") once instrument
	// is called; until then they are private unregistered instruments,
	// so a standalone Cache still counts correctly.
	hits, misses, evictions      *metrics.Counter
	prefetchedHits, retainedHits *metrics.Counter
	stageRefused, doubleReleases *metrics.Counter
	tracer                       *trace.Tracer
	names                        func(id uint32) string // an ID's path, for eviction spans

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
	return newStripedCache(capacity, policy, 0)
}

// newStripedCache is NewCache with an explicit shard count, rounded up to
// a power of two (<=0 selects automatically), for tests that stripe a
// cache on purpose. Capacity is striped across the shards; each shard
// enforces its slice independently, so with uneven ID distribution
// eviction can begin slightly before the aggregate bound is reached —
// never after.
func newStripedCache(capacity int64, policy Policy, shards int) *Cache {
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
		shift:    uint8(bits.TrailingZeros(uint(shards))),
		policy:   policy,
		capacity: capacity,
	}
	c.planEnd.Store(1)
	per := capacity / int64(shards)
	rem := capacity % int64(shards)
	for i := range c.shards {
		sh := &c.shards[i]
		sh.capacity = per
		if int64(i) < rem {
			sh.capacity++
		}
		sh.idle.prev, sh.idle.next = &sh.idle, &sh.idle
	}
	c.instrument(nil, nil, nil)
	return c
}

// instrument re-homes the cache's counters in reg ("fanstore.cache.*")
// and attaches a tracer for eviction events, whose spans name the path
// names gives an ID. Mount calls it before the cache sees any traffic;
// calling it later would orphan prior counts.
func (c *Cache) instrument(reg *metrics.Registry, tr *trace.Tracer, names func(uint32) string) {
	c.hits = reg.Counter("fanstore.cache.hits")
	c.misses = reg.Counter("fanstore.cache.misses")
	c.evictions = reg.Counter("fanstore.cache.evictions")
	c.prefetchedHits = reg.Counter("fanstore.cache.prefetched_opens")
	c.retainedHits = reg.Counter("fanstore.cache.retained_opens")
	c.stageRefused = reg.Counter("fanstore.cache.stage_refused")
	c.doubleReleases = reg.Counter("fanstore.cache.double_releases")
	c.tracer, c.names = tr, names
	// Occupancy is published when somebody looks (a snapshot, so every
	// sampler tick), from the atomics the data path already keeps: no
	// gauge is touched on a pin or unpin.
	used, pinned := reg.Gauge("fanstore.cache.used_bytes"), reg.Gauge("fanstore.cache.pinned_bytes")
	staged, retained := reg.Gauge("fanstore.cache.staged_bytes"), reg.Gauge("fanstore.cache.retained_bytes")
	reg.OnSnapshot(func() {
		used.Set(c.used.Load())
		pinned.Set(c.PinnedBytes())
		staged.Set(c.StagedBytes())
		retained.Set(c.retained.Load())
	})
}

// setEvents attaches the ops-plane event log for eviction-pressure
// reporting. nil (the default) disables it at zero cost.
func (c *Cache) setEvents(ev *obs.EventLog) { c.events = ev }

// NumShards reports the shard count (test and benchmark hook).
func (c *Cache) NumShards() int { return len(c.shards) }

// shard maps an ID to its stripe and its slot there.
func (c *Cache) shard(id uint32) (*cacheShard, uint32) {
	return &c.shards[id&c.mask], id >> c.shift
}

// reserve sizes every shard's tables for the IDs below n, once, when a
// mount has numbered its objects; later IDs grow them on demand.
func (c *Cache) reserve(n int) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.grow(uint32(n) >> c.shift)
		sh.mu.Unlock()
	}
}

// grow makes slot addressable in the shard's tables, at least doubling
// them. Callers hold sh.mu.
func (sh *cacheShard) grow(slot uint32) {
	if int(slot) < len(sh.entries) {
		return
	}
	n := max(int(slot)+1, 2*len(sh.entries)) - len(sh.entries)
	sh.entries = append(sh.entries, make([]*cacheEntry, n)...)
	sh.plan = append(sh.plan, make([]int64, n)...)
	sh.flights = append(sh.flights, make([]*flight, n)...)
}

// entry returns the resident entry at slot, or nil. Callers hold sh.mu.
func (sh *cacheShard) entry(slot uint32) *cacheEntry {
	if int(slot) < len(sh.entries) {
		return sh.entries[slot]
	}
	return nil
}

// newEntry takes a recycled entry, or allocates one. Callers hold sh.mu.
func (sh *cacheShard) newEntry() *cacheEntry {
	e := sh.free
	if e == nil {
		return new(cacheEntry)
	}
	sh.free, e.next = e.next, nil
	return e
}

// Acquire pins and returns the cached decompressed data for object id,
// if resident. The caller must Release once per successful Acquire.
func (c *Cache) Acquire(id uint32) ([]byte, bool) {
	sh, slot := c.shard(id)
	sh.mu.Lock()
	e := sh.entry(slot)
	if e == nil {
		sh.mu.Unlock()
		c.misses.Inc()
		return nil, false
	}
	first := c.pinLocked(sh, e)
	if c.policy == LRU && e.next != &sh.idle {
		unlinkIdle(e)
		sh.pushIdle(e)
	}
	data := e.data
	sh.mu.Unlock()
	c.hits.Inc()
	first.Inc()
	return data, true
}

// pinLocked takes one reference on a resident entry. The first reader of
// a protected entry consumes its position: the plan's read has happened,
// so the entry joins the ones with no known next use, youngest, and its
// staged-bytes credit returns. It returns the counter to bump once
// unlocked: a prefetched open (the first reader of an entry a prefetch
// fetched, protected or not), a retained open, or nil.
func (c *Cache) pinLocked(sh *cacheShard, e *cacheEntry) (first *metrics.Counter) {
	if e.pos != noPos {
		first = c.retainedHits
		c.unprotectLocked(sh, e)
		sh.pushIdle(e)
		sh.plan[e.id>>c.shift] = 0
	}
	if e.prefetched {
		e.prefetched = false
		first = c.prefetchedHits
	}
	if e.refs == 0 {
		c.pins.Add(1)
		sh.pinnedB.Add(int64(len(e.data)))
	}
	e.refs++
	return first
}

// protectLocked gives an unpinned entry outside the policy order the
// position pos: it joins the heap and its bytes count as staged until its
// first reader (or an eviction, or the next plan) takes the position away.
func (c *Cache) protectLocked(sh *cacheShard, e *cacheEntry, pos int64) {
	e.pos = pos
	heap.Push(&sh.far, e)
	c.creditLocked(sh, e, int64(len(e.data)))
}

// unprotectLocked takes a protected entry's position away and returns its
// staged credit. The caller links it into the policy order or drops it.
func (c *Cache) unprotectLocked(sh *cacheShard, e *cacheEntry) {
	c.creditLocked(sh, e, -int64(len(e.data)))
	heap.Remove(&sh.far, e.hidx)
	e.pos = noPos
}

// creditLocked moves a protected entry's bytes in or out of the staged
// totals.
func (c *Cache) creditLocked(sh *cacheShard, e *cacheEntry, delta int64) {
	sh.staged.Add(delta)
	if !e.prefetched {
		c.retained.Add(delta)
	}
}

// Contains reports whether object id is cached, without pinning it or
// counting a hit/miss (the prefetcher uses it to skip staged work).
func (c *Cache) Contains(id uint32) bool {
	sh, slot := c.shard(id)
	sh.mu.Lock()
	ok := sh.entry(slot) != nil
	sh.mu.Unlock()
	return ok
}

// Insert adds data for object id pinned once (refs=1) and returns the
// canonical buffer (an existing entry wins races between two openers
// decompressing the same file). The caller must Release it. owned marks
// data as drawn from the decomp buffer pool: ownership transfers to the
// cache, which recycles it when the entry is removed with no readers, or
// immediately when an existing entry wins.
func (c *Cache) Insert(id uint32, data []byte, owned bool) []byte {
	sh, slot := c.shard(id)
	sh.mu.Lock()
	if e := sh.entry(slot); e != nil {
		// Another I/O thread decompressed (or the prefetcher staged)
		// this file first; share its entry. A staged entry acquired
		// here counts as a prefetched open, same as via Acquire.
		first := c.pinLocked(sh, e)
		canonical := e.data
		sh.mu.Unlock()
		c.hits.Inc()
		first.Inc()
		if owned {
			decomp.PutBuf(data) // the losing duplicate is dead
		}
		return canonical
	}
	sh.grow(slot)
	e := sh.newEntry()
	e.id, e.data, e.refs, e.pos, e.owned = id, data, 1, noPos, owned
	sh.pushIdle(e)
	sh.entries[slot] = e
	sh.plan[slot] = 0 // a demand read: the plan's read of it is no longer ahead
	sh.used += int64(len(data))
	c.used.Add(int64(len(data)))
	c.entries.Add(1)
	c.pins.Add(1)
	sh.pinnedB.Add(int64(len(data)))
	c.evictLocked(sh, nil)
	sh.mu.Unlock()
	return data
}

// InsertIdle stages data for object id unpinned (refs=0), for the
// prefetcher: the entry is protected at the object's position in the
// installed plan (an object no plan knows is stamped after everything
// known — call order) but evictable, so a canceled epoch cannot wedge
// the pool with pins nobody will release, and its first Acquire is
// counted as a prefetched open. It does no harm: when its shard is full
// of pinned entries and entries needed before it, the newcomer is the
// one dropped (stage_refused) and the open falls back to demand. An
// existing entry wins (an owned duplicate is recycled immediately).
// Reports whether the data was staged. owned is as for Insert.
func (c *Cache) InsertIdle(id uint32, data []byte, owned bool) bool {
	sh, slot := c.shard(id)
	sh.mu.Lock()
	if sh.entry(slot) != nil {
		sh.mu.Unlock()
		if owned {
			decomp.PutBuf(data)
		}
		return false
	}
	sh.grow(slot)
	pos := sh.plan[slot]
	if pos == 0 {
		pos = c.planEnd.Add(1) - 1
	}
	e := sh.newEntry()
	e.id, e.data, e.prefetched, e.owned = id, data, true, owned
	c.protectLocked(sh, e, pos)
	sh.entries[slot] = e
	sh.used += int64(len(data))
	c.used.Add(int64(len(data)))
	c.entries.Add(1)
	refused := c.evictLocked(sh, e)
	sh.mu.Unlock()
	if refused {
		c.stageRefused.Inc()
	}
	return !refused
}

// Expect installs a plan: object IDs, distinct, in the order they will
// be read. Whatever an older plan left protected is first demoted to no
// known next use (a stopped epoch cannot wedge the pool), then every ID
// takes the next position, and an unpinned resident entry among them is
// protected at it before any staging starts, instead of being evicted as
// old and fetched again when its turn comes. An empty plan only demotes.
// The install holds every shard's lock at once, in shard order: one
// pass over the plan, not a lock round trip per object.
func (c *Cache) Expect(ids []uint32) {
	base := c.planEnd.Add(int64(len(ids))) - int64(len(ids))
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for len(sh.far) > 0 {
			e := sh.far[len(sh.far)-1]
			c.unprotectLocked(sh, e)
			sh.pushIdle(e)
		}
		clear(sh.plan)
	}
	for i, id := range ids {
		sh, slot := c.shard(id)
		sh.grow(slot)
		if sh.plan[slot] != 0 {
			continue // a duplicate keeps its first position
		}
		pos := base + int64(i)
		sh.plan[slot] = pos
		if e := sh.entries[slot]; e != nil && e.refs == 0 && e.pos == noPos {
			unlinkIdle(e)
			c.protectLocked(sh, e, pos)
		}
	}
	for i := range c.shards {
		c.shards[i].mu.Unlock()
	}
}

// Release unpins one reference. With the Immediate policy the entry is
// dropped at refs==0; otherwise it stays until capacity pressure.
func (c *Cache) Release(id uint32) {
	sh, slot := c.shard(id)
	sh.mu.Lock()
	e := sh.entry(slot)
	if e == nil || e.refs == 0 {
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
		sh.pinnedB.Add(-int64(len(e.data)))
		if c.policy == Immediate {
			c.removeLocked(sh, e)
		}
	}
	c.evictLocked(sh, nil)
	sh.mu.Unlock()
}

// evictLocked removes unpinned entries until the shard is within its
// capacity slice: first those with no known next use, in policy order,
// then the protected one needed furthest ahead — which may be newcomer,
// the entry being staged; that is reported, not counted as an eviction.
func (c *Cache) evictLocked(sh *cacheShard, newcomer *cacheEntry) (refused bool) {
	next := sh.idle.next
	for sh.used > sh.capacity {
		for next != &sh.idle && next.refs > 0 { // never evict a file an open FD is reading
			next = next.next
		}
		var e *cacheEntry
		if next != &sh.idle {
			e, next = next, next.next
		} else if len(sh.far) > 0 {
			e = sh.far[0]
		} else {
			break
		}
		id := e.id
		c.removeLocked(sh, e)
		if e == newcomer {
			refused = true
			continue
		}
		c.evictions.Inc()
		if c.tracer.Enabled() {
			c.tracer.Event(trace.OpEvict, c.names(id), trace.OutcomeNone)
		}
		if c.events.Enabled() {
			if seq := c.evictSeq.Add(1); seq%evictionPressureStride == 1 {
				c.events.Emitf(obs.EvEvictionPressure, obs.SevWarn,
					"cache under pressure: %d evictions so far (capacity=%d B, pinned=%d B)",
					c.evictions.Value(), c.capacity, c.PinnedBytes())
			}
		}
	}
	return refused
}

// removeLocked unlinks an entry, recycles its buffer if the cache owns
// it and puts the entry on the shard's free list. Callers guarantee
// refs == 0: a pinned entry's buffer is still visible to a reader and
// must never reach the pool.
func (c *Cache) removeLocked(sh *cacheShard, e *cacheEntry) {
	if e.pos != noPos {
		c.unprotectLocked(sh, e) // evicted unread: the consumer will fetch on demand
	} else {
		unlinkIdle(e)
	}
	sh.entries[e.id>>c.shift] = nil
	sh.used -= int64(len(e.data))
	c.used.Add(-int64(len(e.data)))
	c.entries.Add(-1)
	if e.owned {
		decomp.PutBuf(e.data)
	}
	*e = cacheEntry{next: sh.free}
	sh.free = e
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
		PinnedBytes:    c.PinnedBytes(),
		StagedBytes:    c.StagedBytes(),
		DoubleReleases: c.doubleReleases.Value(),
	}
}

// Capacity reports the aggregate byte bound across all shards.
func (c *Cache) Capacity() int64 { return c.capacity }

// PinnedBytes reports the byte total of entries with live references.
func (c *Cache) PinnedBytes() (n int64) {
	for i := range c.shards {
		n += c.shards[i].pinnedB.Load()
	}
	return n
}

// StagedBytes reports the byte total of protected entries — fetched by a
// prefetch or retained for the installed plan — that have not been opened
// yet: what admission bounds.
func (c *Cache) StagedBytes() (n int64) {
	for i := range c.shards {
		n += c.shards[i].staged.Load()
	}
	return n
}

// Headroom reports the capacity still available for new staged data: what
// the tightest shard can take — its slice minus its pinned and staged
// bytes — times the shard count. Capacity is enforced per shard, so the
// aggregate free space would let the planner overflow the fuller shard
// while the sum still read free; with many shards and few large objects
// this is conservative. Unpinned entries with no known next use count as
// headroom: they are evictable the moment pressure arrives.
//
// The atomics are read while the data path mutates them, so a shard's
// sampled sum can transiently exceed its slice (a pin can land before the
// staged-byte decrement of the same Acquire is visible). The clamp keeps
// such a sample at zero: a negative one, cast or compared carelessly
// upstream, disabled the scheduler's admission gate entirely.
func (c *Cache) Headroom() int64 {
	tightest := int64(math.MaxInt64)
	for i := range c.shards {
		sh := &c.shards[i]
		if h := sh.capacity - sh.pinnedB.Load() - sh.staged.Load(); h < tightest {
			tightest = h
		}
	}
	if tightest < 0 {
		return 0
	}
	return tightest * int64(len(c.shards))
}

// pinned reports the number of entries with live references (test hook).
func (c *Cache) pinned() int {
	return int(c.pins.Load())
}
