package experiments

import (
	"container/heap"
	"math"
	"math/rand"
)

// accessShape is one benchmark workload's access pattern as one rank's
// decompressed cache sees it: every epoch a fresh permutation of the files,
// striped over the ranks in batches (prefetch.RangeSampler's stride), a
// cache of slots equal-sized entries filled on demand.
type accessShape struct {
	name                       string
	files, ranks, batch, slots int
	// localCached: the rank's own files are decoded into the cache too
	// (compressed data). Raw local files are served zero-copy and never
	// enter it, so only the remote half is cache-eligible.
	localCached bool
}

// benchShapes are bench/workload.go's three training workloads whose cache
// holds a quarter of the data.
var benchShapes = []accessShape{
	{name: "train_raw", files: 512, ranks: 2, batch: 8, slots: 128},
	{name: "train_lz", files: 512, ranks: 2, batch: 8, slots: 128, localCached: true},
	{name: "train_small", files: 16384, ranks: 2, batch: 64, slots: 4096, localCached: true},
}

// record draws the cache-eligible file ids rank 0 opens, epoch by epoch.
// Rank 0 owns the first files/ranks ids.
func (s accessShape) record(epochs int, seed int64) [][]int {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]int, epochs)
	for e := range out {
		perm := rng.Perm(s.files)
		for start := 0; start < s.files; start += s.batch * s.ranks {
			for _, id := range perm[start:min(start+s.batch, s.files)] {
				if s.localCached || id >= s.files/s.ranks {
					out[e] = append(out[e], id)
				}
			}
		}
	}
	return out
}

// replayFIFO counts the opens the paper's cache serves without a fetch or
// decode: insert on a miss, evict the oldest insertion.
func replayFIFO(epochs [][]int, slots int) (hits int) {
	resident := make(map[int]bool, slots)
	var order []int
	for _, seq := range epochs {
		for _, id := range seq {
			if resident[id] {
				hits++
				continue
			}
			resident[id] = true
			if order = append(order, id); len(order) > slots {
				delete(resident, order[0])
				order = order[1:]
			}
		}
	}
	return hits
}

// replayPlan counts the same under the rule fanstore.Cache applies once an
// epoch's order is installed (Cache.Expect): what is resident and will be
// read this epoch is protected at its position; a miss inserts, then evicts
// the oldest entry the epoch will not read (again), else the protected
// entry needed furthest ahead — never the file being read, which joins
// the first kind once read.
func replayPlan(epochs [][]int, slots int) (hits int) {
	// id -> its position this epoch while protected (>= 0), else minus the
	// stamp it was queued under when its read passed.
	resident := make(map[int]int, slots)
	type queued struct{ id, stamp int }
	var idle []queued // oldest first; an entry whose id carries another value is stale
	stamp := 0
	release := func(id int) {
		stamp++
		resident[id] = -stamp
		idle = append(idle, queued{id, stamp})
	}
	for _, seq := range epochs {
		var far []int // ids protected this epoch, by position; consumed ones are stale
		for pos, id := range seq {
			if _, ok := resident[id]; ok {
				resident[id] = pos
				far = append(far, id)
			}
		}
		for _, id := range seq {
			if at, ok := resident[id]; ok {
				hits++
				if at >= 0 {
					release(id)
				}
				continue
			}
			for len(resident) == slots {
				if len(idle) > 0 {
					if q := idle[0]; resident[q.id] == -q.stamp {
						delete(resident, q.id)
					}
					idle = idle[1:]
				} else {
					if at, ok := resident[far[len(far)-1]]; ok && at >= 0 {
						delete(resident, far[len(far)-1])
					}
					far = far[:len(far)-1]
				}
			}
			release(id)
		}
	}
	return hits
}

// nextUse is one resident id keyed by the index of its next open.
type nextUse struct{ at, id int }
type furthest []nextUse

func (h furthest) Len() int           { return len(h) }
func (h furthest) Less(i, j int) bool { return h[i].at > h[j].at }
func (h furthest) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *furthest) Push(x any)        { *h = append(*h, x.(nextUse)) }
func (h *furthest) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// replayMIN counts the same under Belady's MIN with the whole recorded
// future, every epoch of it: a miss keeps the slots entries, the newcomer
// included, whose next opens come soonest. No policy that fills on demand
// does better; a plan that spans the epoch boundary can approach it, one
// that ends at the barrier cannot.
func replayMIN(epochs [][]int, slots int) (hits int) {
	var seq []int
	for _, e := range epochs {
		seq = append(seq, e...)
	}
	next := make([]int, len(seq)) // index of the next open of seq[i]
	last := make(map[int]int)
	for i := len(seq) - 1; i >= 0; i-- {
		if n, ok := last[seq[i]]; ok {
			next[i] = n
		} else {
			next[i] = math.MaxInt
		}
		last[seq[i]] = i
	}
	resident := make(map[int]int, slots) // id -> index of its next open
	var far furthest                     // stale keys are skipped
	for i, id := range seq {
		if _, ok := resident[id]; ok {
			hits++
		}
		resident[id] = next[i]
		heap.Push(&far, nextUse{next[i], id})
		for len(resident) > slots {
			if top := heap.Pop(&far).(nextUse); resident[top.id] == top.at {
				delete(resident, top.id)
			}
		}
	}
	return hits
}
