package fanstore

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// oids interns the names cache tests give their objects.
var oids struct {
	sync.Mutex
	m map[string]uint32
}

// oid is the object ID a cache test calls name: small and dense in the
// order names are first seen, with the low six bits of name's FNV-1a
// hash, so a name lands in the shard its path hashed to when the cache
// was keyed by path (up to 64 shards) and the recorded eviction
// sequences hold.
func oid(name string) uint32 {
	oids.Lock()
	defer oids.Unlock()
	if oids.m == nil {
		oids.m = make(map[string]uint32)
	}
	id, ok := oids.m[name]
	if !ok {
		h := fnv.New32a()
		h.Write([]byte(name))
		id = uint32(len(oids.m))<<6 | h.Sum32()&63
		oids.m[name] = id
	}
	return id
}

func TestCacheAcquireInsertRelease(t *testing.T) {
	c := NewCache(1<<20, FIFO)
	if _, ok := c.Acquire(oid("a")); ok {
		t.Fatal("empty cache should miss")
	}
	data := []byte("hello")
	got := c.Insert(oid("a"), data, false)
	if !bytes.Equal(got, data) {
		t.Fatal("Insert should return the buffer")
	}
	d2, ok := c.Acquire(oid("a"))
	if !ok || !bytes.Equal(d2, data) {
		t.Fatal("Acquire after Insert should hit")
	}
	c.Release(oid("a"))
	c.Release(oid("a"))
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestCacheInsertRace(t *testing.T) {
	// Two I/O threads decompress the same file; the second Insert must
	// adopt the first buffer so both FDs share one entry (Fig. 4).
	c := NewCache(1<<20, FIFO)
	first := c.Insert(oid("f"), []byte("one"), false)
	second := c.Insert(oid("f"), []byte("two"), false)
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
		c.Insert(oid(path), make([]byte, 30), false)
		c.Release(oid(path))
	}
	st := c.Stats()
	if st.Used > 100 {
		t.Fatalf("used %d exceeds capacity", st.Used)
	}
	// FIFO: the survivors must be the most recently inserted files.
	if _, ok := c.Acquire(oid("f0")); ok {
		t.Fatal("oldest entry should have been evicted first")
	}
	if _, ok := c.Acquire(oid("f9")); !ok {
		t.Fatal("newest entry should survive")
	}
	c.Release(oid("f9"))
	if st.Evictions == 0 {
		t.Fatal("expected evictions")
	}
}

func TestCacheNeverEvictsPinned(t *testing.T) {
	c := NewCache(100, FIFO)
	c.Insert(oid("pinned"), make([]byte, 80), false) // stays pinned
	for i := 0; i < 5; i++ {
		p := fmt.Sprintf("x%d", i)
		c.Insert(oid(p), make([]byte, 60), false)
		c.Release(oid(p))
	}
	if _, ok := c.Acquire(oid("pinned")); !ok {
		t.Fatal("pinned entry was evicted")
	}
	c.Release(oid("pinned"))
	c.Release(oid("pinned"))
}

func TestCacheImmediatePolicy(t *testing.T) {
	c := NewCache(1<<20, Immediate)
	c.Insert(oid("a"), []byte("data"), false)
	c.Release(oid("a"))
	if _, ok := c.Acquire(oid("a")); ok {
		t.Fatal("immediate policy must drop at refs==0")
	}
	if st := c.Stats(); st.Used != 0 {
		t.Fatalf("used = %d after immediate release", st.Used)
	}
}

func TestCacheLRUPolicy(t *testing.T) {
	c := NewCache(100, LRU)
	c.Insert(oid("a"), make([]byte, 40), false)
	c.Release(oid("a"))
	c.Insert(oid("b"), make([]byte, 40), false)
	c.Release(oid("b"))
	// Touch a so b becomes the LRU victim.
	if _, ok := c.Acquire(oid("a")); !ok {
		t.Fatal("a should be cached")
	}
	c.Release(oid("a"))
	c.Insert(oid("c"), make([]byte, 40), false)
	c.Release(oid("c"))
	if _, ok := c.Acquire(oid("b")); ok {
		t.Fatal("LRU should have evicted b")
	}
	if _, ok := c.Acquire(oid("a")); !ok {
		t.Fatal("LRU should have kept a")
	}
	c.Release(oid("a"))
}

func TestCacheDoubleReleaseTolerated(t *testing.T) {
	c := NewCache(1<<20, FIFO)
	c.Insert(oid("a"), []byte("x"), false)
	c.Release(oid("a"))
	c.Release(oid("a")) // bug in caller: must not panic or corrupt
	c.Release(oid("nonexistent"))
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
	if !c.InsertIdle(oid("a"), make([]byte, 60), false) {
		t.Fatal("InsertIdle into empty cache must stage")
	}
	if st := c.Stats(); st.Pinned != 0 {
		t.Fatalf("idle entry is pinned: %+v", st)
	}
	// An existing entry wins; nothing is replaced or re-staged.
	if c.InsertIdle(oid("a"), make([]byte, 60), false) {
		t.Fatal("InsertIdle must not replace an existing entry")
	}
	// Unpinned staged entries yield to capacity pressure immediately.
	c.Insert(oid("b"), make([]byte, 60), false)
	if c.Contains(oid("a")) {
		t.Fatal("idle entry survived eviction pressure from a pinned insert")
	}
	c.Release(oid("b"))
	// The first Acquire of a staged entry counts as a prefetched open;
	// later acquires are plain hits.
	c.InsertIdle(oid("p"), []byte("staged"), false)
	if _, ok := c.Acquire(oid("p")); !ok {
		t.Fatal("staged entry must be acquirable")
	}
	c.Release(oid("p"))
	if _, ok := c.Acquire(oid("p")); !ok {
		t.Fatal("entry must survive under FIFO")
	}
	c.Release(oid("p"))
	if got := c.prefetchedHits.Value(); got != 1 {
		t.Fatalf("prefetched opens = %d, want 1", got)
	}
}

// checkCacheInvariants recounts every shard under its lock against the
// incremental accounting: used, staged (protected-unread), pinned, and the
// two order structures; a protected entry is unpinned and sits at its heap
// index, and the heap is ordered furthest-first. Headroom is the tightest
// shard's room times the shard count.
func checkCacheInvariants(c *Cache, pins map[uint32]int) error {
	var used, staged, pinned int64
	tightest := int64(noPos)
	for i := range c.shards {
		sh := &c.shards[i]
		var shUsed, shStaged, shPinned int64
		err := func() error {
			sh.mu.Lock()
			defer sh.mu.Unlock()
			resident := 0
			for slot, e := range sh.entries {
				if e == nil {
					continue
				}
				resident++
				if e.id != uint32(slot)<<c.shift|uint32(i) {
					return fmt.Errorf("shard %d slot %d holds object %d", i, slot, e.id)
				}
				size := int64(len(e.data))
				shUsed += size
				if e.refs != pins[e.id] {
					return fmt.Errorf("#%d: %d refs, the model holds %d pins", e.id, e.refs, pins[e.id])
				}
				if e.refs > 0 {
					shPinned += size
				}
				if e.pos == noPos {
					continue
				}
				shStaged += size
				if e.refs > 0 || e.hidx >= len(sh.far) || sh.far[e.hidx] != e {
					return fmt.Errorf("#%d: protected at %d with %d refs, heap index %d of %d", e.id, e.pos, e.refs, e.hidx, len(sh.far))
				}
			}
			for j := 1; j < len(sh.far); j++ {
				if sh.far[(j-1)/2].pos < sh.far[j].pos {
					return fmt.Errorf("shard %d: heap out of order at %d", i, j)
				}
			}
			switch n := sh.orderLen(); {
			case n != resident:
				return fmt.Errorf("shard %d: eviction order holds %d entries, table %d", i, n, resident)
			case shUsed != sh.used || shStaged != sh.staged.Load() || shPinned != sh.pinnedB.Load():
				return fmt.Errorf("shard %d: recount used/staged/pinned %d/%d/%d != %d/%d/%d", i,
					shUsed, shStaged, shPinned, sh.used, sh.staged.Load(), sh.pinnedB.Load())
			case shUsed > sh.capacity+shPinned:
				return fmt.Errorf("shard %d: used %d > capacity %d + pinned %d", i, shUsed, sh.capacity, shPinned)
			}
			return nil
		}()
		if err != nil {
			return err
		}
		used, staged, pinned = used+shUsed, staged+shStaged, pinned+shPinned
		tightest = max(0, min(tightest, sh.capacity-shPinned-shStaged))
	}
	room := tightest * int64(len(c.shards))
	if st := c.Stats(); st.Used != used || st.StagedBytes != staged || st.PinnedBytes != pinned || c.Headroom() != room {
		return fmt.Errorf("aggregates used/staged/pinned/headroom %d/%d/%d/%d, recount %d/%d/%d/%d",
			st.Used, st.StagedBytes, st.PinnedBytes, c.Headroom(), used, staged, pinned, room)
	}
	return nil
}

// TestCacheInvariantsQuick property-tests the eviction rule over random
// Insert / InsertIdle / Expect / Acquire / Release streams, 1, 2 and 4
// shards, all three policies: the accounting recounts exactly after every
// operation (checkCacheInvariants); an entry never leaves while the model
// still holds a pin on it; a protected entry never leaves before an
// unpinned one no plan reads; nothing needed before a staged newcomer is
// evicted to admit it, whether the newcomer stays or is refused (and
// every refusal is counted); and once
// every pin is released and the plan is replaced by an empty one, used is
// within capacity and nothing is staged.
func TestCacheInvariantsQuick(t *testing.T) {
	type op struct{ Kind, Key, Arg uint8 }
	const keys, size = 16, 100
	name := func(k uint8) uint32 { return uint32(k % keys) } // object IDs 0..keys-1
	for _, policy := range []Policy{FIFO, LRU, Immediate} {
		for _, shards := range []int{1, 2, 4} {
			f := func(ops []op) bool {
				c := newStripedCache(6*size, policy, shards)
				pins := make(map[uint32]int)
				refused := int64(0) // stagings of a non-resident object that did not stay
				fail := func(format string, args ...any) bool {
					t.Logf("%v/%d shards: "+format, append([]any{policy, shards}, args...)...)
					return false
				}
				for _, o := range ops {
					key := name(o.Key)
					before := make(map[uint32]int64) // resident object -> next use
					for k := uint8(0); k < keys; k++ {
						if sh, slot := c.shard(name(k)); sh.entry(slot) != nil {
							before[name(k)] = sh.entry(slot).pos
						}
					}
					newcomer := int64(noPos) // the position an InsertIdle stages at
					switch o.Kind % 8 {
					case 0, 1:
						c.Insert(key, make([]byte, size), false)
						pins[key]++
					case 2, 3:
						if _, resident := before[key]; !resident {
							pos := int64(0)
							if sh, slot := c.shard(key); int(slot) < len(sh.plan) {
								pos = sh.plan[slot]
							}
							if pos == 0 { // not planned
								pos = c.planEnd.Load()
							}
							newcomer = pos
						}
						_, resident := before[key]
						if !c.InsertIdle(key, make([]byte, size), false) && !resident {
							refused++
						}
					case 4:
						var plan []uint32 // Arg picks the plan: a rotation of a prefix of the keys
						for k := uint8(0); k < o.Arg%keys; k++ {
							plan = append(plan, name(o.Key+k))
						}
						c.Expect(plan)
					case 5, 6:
						if _, ok := c.Acquire(key); ok {
							pins[key]++
						}
					default:
						if pins[key] > 0 {
							c.Release(key)
							pins[key]--
						}
					}
					if err := checkCacheInvariants(c, pins); err != nil {
						return fail("after %+v: %v", o, err)
					}
					for id, pos := range before {
						if c.Contains(id) {
							continue
						}
						if pins[id] > 0 {
							return fail("%+v evicted #%d while pinned", o, id)
						}
						if pos < newcomer && newcomer != noPos {
							return fail("%+v staged at %d over #%d, needed at %d", o, newcomer, id, pos)
						}
						sh, _ := c.shard(id)
						for _, e := range sh.entries {
							if e != nil && pos != noPos && e.pos == noPos && e.refs == 0 {
								return fail("%+v evicted #%d, needed at %d, before #%d, which no plan reads", o, id, pos, e.id)
							}
						}
					}
				}
				for k, n := range pins {
					for ; n > 0; n-- {
						c.Release(k)
					}
				}
				c.Expect(nil)
				if st := c.Stats(); st.Used > 6*size || st.StagedBytes != 0 || st.Pinned != 0 || c.stageRefused.Value() != refused {
					return fail("quiesced: %+v, %d refusals counted of %d", st, c.stageRefused.Value(), refused)
				}
				return checkCacheInvariants(c, nil) == nil
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestCacheDemandEvictionSequenceIsTheParents: with no plan installed and
// nothing staged every entry's next use is unknown, and the eviction
// sequence is the policy's alone — the hashes below were recorded by this
// function at the commit before the next-use rule existed (811595e).
func TestCacheDemandEvictionSequenceIsTheParents(t *testing.T) {
	golden := map[Policy][3]uint64{
		FIFO:      {0x5e1315e0014fe18f, 0x7cf559e29270bd8c, 0x937b766a120bf4af},
		LRU:       {0xe50bfce70d542ceb, 0x7e5f3d7c61b65356, 0xa6b6494833668555},
		Immediate: {0x6898d8a9870fbc62, 0x4a8c625823311967, 0xe4c0de93ee19fd2c},
	}
	for policy, want := range golden {
		for i, shards := range []int{1, 2, 4} {
			if got := demandEvictionHash(policy, shards); got != want[i] {
				t.Errorf("%v, %d shards: eviction sequence hash %#x, recorded %#x", policy, shards, got, want[i])
			}
		}
	}
}

// demandEvictionHash replays a fixed pseudo-random stream of demand
// operations (Insert, Acquire, Release — no staging, no plan) and hashes
// the (operation, path) of every entry that left the cache, in order.
func demandEvictionHash(policy Policy, shards int) uint64 {
	const keys, size, ops = 24, 100, 4000
	c := newStripedCache(10*size, policy, shards)
	rng := rand.New(rand.NewSource(int64(policy)*16 + int64(shards)))
	pins := make([]int, keys)
	resident := make([]bool, keys)
	h := fnv.New64a()
	for op := 0; op < ops; op++ {
		k := rng.Intn(keys)
		key := fmt.Sprintf("k%02d", k)
		switch r := rng.Intn(10); {
		case r < 4:
			c.Insert(oid(key), make([]byte, size), false)
			pins[k]++
		case r < 6:
			if _, ok := c.Acquire(oid(key)); ok {
				pins[k]++
			}
		default:
			if pins[k] > 0 {
				c.Release(oid(key))
				pins[k]--
			}
		}
		for j := range resident {
			now := c.Contains(oid(fmt.Sprintf("k%02d", j)))
			if resident[j] && !now {
				fmt.Fprintf(h, "%d:%d;", op, j)
			}
			resident[j] = now
		}
	}
	return h.Sum64()
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
				if data, ok := c.Acquire(oid(key)); ok {
					if len(data) != 512 {
						t.Errorf("corrupt entry for %s", key)
					}
					c.Release(oid(key))
				} else {
					c.Insert(oid(key), make([]byte, 512), false)
					c.Release(oid(key))
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
	c := newStripedCache(1000, FIFO, 1)
	if h := c.Headroom(); h != 1000 {
		t.Fatalf("empty cache headroom = %d, want 1000", h)
	}
	c.Insert(oid("a"), make([]byte, 400), false) // pinned
	if h := c.Headroom(); h != 600 {
		t.Fatalf("after 400 pinned, headroom = %d, want 600", h)
	}
	c.InsertIdle(oid("b"), make([]byte, 300), false) // staged
	if h := c.Headroom(); h != 300 {
		t.Fatalf("after 300 staged, headroom = %d, want 300", h)
	}
	// Pin two more large entries: pinned total 1200 > capacity. The
	// subtraction would be negative; Headroom must clamp.
	c.Insert(oid("c"), make([]byte, 400), false)
	c.Insert(oid("d"), make([]byte, 400), false)
	if h := c.Headroom(); h != 0 {
		t.Fatalf("overpinned cache headroom = %d, want 0", h)
	}
	st := c.Stats()
	if st.PinnedBytes != 1200 || st.StagedBytes > 300 {
		t.Fatalf("accounting drifted: %+v", st)
	}
	// Releasing the pins restores positive headroom.
	c.Release(oid("a"))
	c.Release(oid("c"))
	c.Release(oid("d"))
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
	c := newStripedCache(4<<10, FIFO, 2)
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
					c.InsertIdle(oid(key), make([]byte, 512), false)
				}
				if _, ok := c.Acquire(oid(key)); ok {
					c.Release(oid(key))
				} else {
					c.Insert(oid(key), make([]byte, 512), false)
					c.Release(oid(key))
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
