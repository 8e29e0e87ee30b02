package fanstore

// Singleflight coalescing across the read path: concurrent demand opens
// and overlapping prefetches of the same not-yet-cached object share one
// fetch+decode. The leader — whichever producer registers the object
// first — performs the data path; everyone else blocks on its flight
// and re-checks the cache when it completes. Coalescing matters most
// under the epoch planner: the plan stages whole-epoch windows, so a
// demand open racing a staged window would otherwise duplicate the
// fetch the interconnect is already carrying. A flight sits in the slot
// of the cache shard that will hold its object's entry, under the same
// lock.

import (
	"errors"
	"sync"
)

// errFlightAbandoned marks a flight whose leader gave up without either
// staging the object or hitting a demand-path error: a best-effort
// prefetch that exhausted every replica, typically. Waiters retry on
// demand instead of failing their open — prefetch outcomes must never
// decide an open's fate.
var errFlightAbandoned = errors.New("fanstore: in-flight fetch abandoned")

// flight is one in-flight fetch+decode shared by every concurrent
// producer (demand opens and prefetch staging) of the same object.
type flight struct {
	done sync.WaitGroup // the leader's one Add, undone by finishFlight
	err  error          // set before done is released; nil means the cache has the entry
}

// beginFlight joins or starts the flight for object id. leader reports
// whether the caller owns the data path for this object and must call
// finishFlight; when false another producer is already fetching it —
// wait on f.done, then re-check the cache.
func (c *Cache) beginFlight(id uint32) (f *flight, leader bool) {
	sh, slot := c.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.grow(slot)
	if f = sh.flights[slot]; f != nil {
		return f, false
	}
	f = new(flight)
	f.done.Add(1)
	sh.flights[slot] = f
	return f, true
}

// finishFlight publishes the leader's result and releases the waiters.
// A nil err promises the object reached the cache (pinned by the leader
// or staged idle); errFlightAbandoned sends waiters back to the demand
// path; any other error propagates to waiting opens.
func (c *Cache) finishFlight(id uint32, f *flight, err error) {
	f.err = err
	sh, slot := c.shard(id)
	sh.mu.Lock()
	sh.flights[slot] = nil
	sh.mu.Unlock()
	f.done.Done()
}

// flightCount reports how many fetch+decode flights are currently in
// progress (test hook).
func (n *Node) flightCount() (count int) {
	for i := range n.cache.shards {
		sh := &n.cache.shards[i]
		sh.mu.Lock()
		for _, f := range sh.flights {
			if f != nil {
				count++
			}
		}
		sh.mu.Unlock()
	}
	return count
}
