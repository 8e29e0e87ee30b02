package experiments

import (
	"testing"

	"fanstore/internal/fanstore"
)

// liveHits feeds one recorded sequence to the real cache, single-threaded,
// one shard of slots equal-sized entries, each file named by its index as
// its object ID: install the epoch's order (or not), then open, fill on a
// miss, close. The cache a mount would build
// at this capacity has that one shard; liveHits checks it does.
func liveHits(t *testing.T, epochs [][]int, slots int, install bool) (hits int) {
	const size = 64
	c := fanstore.NewCache(int64(slots*size), fanstore.FIFO)
	if c.NumShards() != 1 {
		t.Fatalf("a %d-byte cache has %d shards, want 1", slots*size, c.NumShards())
	}
	for _, seq := range epochs {
		if install {
			ids := make([]uint32, len(seq))
			for i, id := range seq {
				ids[i] = uint32(id)
			}
			c.Expect(ids)
		}
		for _, id := range seq {
			if _, ok := c.Acquire(uint32(id)); ok {
				hits++
			} else {
				c.Insert(uint32(id), make([]byte, size), false)
			}
			c.Release(uint32(id))
		}
	}
	return hits
}

// TestEvictionModelsMatchLiveCache: the offline replays are the cache's
// rule, not a cousin of it — fed the same recorded sequence the live cache
// hits exactly as often as replayPlan with the epoch order installed, and
// as replayFIFO without. MIN bounds both from above.
func TestEvictionModelsMatchLiveCache(t *testing.T) {
	for _, s := range benchShapes {
		if s.files > 1024 {
			s.files, s.batch, s.slots = s.files/16, s.batch/4, s.slots/16
		}
		epochs := s.record(12, 7)
		fifo, plan, best := replayFIFO(epochs, s.slots), replayPlan(epochs, s.slots), replayMIN(epochs, s.slots)
		if live := liveHits(t, epochs, s.slots, false); live != fifo {
			t.Errorf("%s: live cache without a plan hit %d times, replayFIFO %d", s.name, live, fifo)
		}
		if live := liveHits(t, epochs, s.slots, true); live != plan {
			t.Errorf("%s: live cache with the plan installed hit %d times, replayPlan %d", s.name, live, plan)
		}
		if !(fifo < plan && plan < best) {
			t.Errorf("%s: hits FIFO %d, plan %d, MIN %d: want FIFO < plan < MIN", s.name, fifo, plan, best)
		}
	}
}
