package fanstore

// Singleflight coalescing across the read path: concurrent demand opens
// and overlapping prefetches of the same not-yet-cached path share one
// fetch+decode. The leader — whichever producer registers the path
// first — performs the data path; everyone else blocks on its flight
// and re-checks the cache when it completes. Coalescing matters most
// under the epoch planner: the plan stages whole-epoch windows, so a
// demand open racing a staged window would otherwise duplicate the
// fetch the interconnect is already carrying.

import "errors"

// errFlightAbandoned marks a flight whose leader gave up without either
// staging the object or hitting a demand-path error: a best-effort
// prefetch that exhausted every replica, typically. Waiters retry on
// demand instead of failing their open — prefetch outcomes must never
// decide an open's fate.
var errFlightAbandoned = errors.New("fanstore: in-flight fetch abandoned")

// flight is one in-flight fetch+decode shared by every concurrent
// producer (demand opens and prefetch staging) of the same path.
type flight struct {
	done chan struct{}
	err  error // set before done closes; nil means the cache has the entry
}

// beginFlight joins or starts the flight for path. leader reports
// whether the caller owns the data path for this object and must call
// finishFlight; when false another producer is already fetching it —
// wait on f.done, then re-check the cache.
func (n *Node) beginFlight(path string) (f *flight, leader bool) {
	n.inflightMu.Lock()
	if f, ok := n.inflight[path]; ok {
		n.inflightMu.Unlock()
		return f, false
	}
	f = &flight{done: make(chan struct{})}
	n.inflight[path] = f
	n.inflightMu.Unlock()
	return f, true
}

// finishFlight publishes the leader's result and releases the waiters.
// A nil err promises the object reached the cache (pinned by the leader
// or staged idle); errFlightAbandoned sends waiters back to the demand
// path; any other error propagates to waiting opens.
func (n *Node) finishFlight(path string, f *flight, err error) {
	f.err = err
	n.inflightMu.Lock()
	delete(n.inflight, path)
	n.inflightMu.Unlock()
	close(f.done)
}

// flightCount reports how many fetch+decode flights are currently in
// progress (test hook).
func (n *Node) flightCount() int {
	n.inflightMu.Lock()
	defer n.inflightMu.Unlock()
	return len(n.inflight)
}
