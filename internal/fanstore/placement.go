package fanstore

import (
	"fmt"
	"sort"
)

// PlanPlacement implements the §IV-C1 loading decision: given the
// partition sizes and each node's available local storage, decide which
// partitions every node loads. Each partition gets exactly one owner
// (round-robin over nodes, largest partitions first, tightest fit), and
// leftover capacity is filled with replicas of the ring predecessor's
// partitions — "the more data served from local storage, the less
// communication passes through the interconnect" (§V-D).
//
// The result is indexed by node: Own lists partition indices the node
// owns (and announces); Replicas lists extra partition indices it serves
// without owning.
type Placement struct {
	Own      [][]int
	Replicas [][]int
}

// PlanPlacement is the planner's from-scratch case: nothing is placed
// yet, so every partition goes first-fit-decreasing to the node with the
// most free space (PlanDelta's place pass; its keep and fill passes have
// nothing to do). It fails when the partitions cannot fit the aggregate
// capacity at all — the Fig. 1 infeasible region, where the caller must
// add nodes or compress harder.
func PlanPlacement(partSizes []int64, nodes int, capacity int64) (*Placement, error) {
	unplaced := make([]int, len(partSizes))
	for i := range unplaced {
		unplaced[i] = -1
	}
	p, _, err := PlanDelta(partSizes, unplaced, nodes, capacity)
	return p, err
}

// fillRingReplicas spends each node's spare capacity on replicas of the
// ring predecessor's partitions, in order, while they fit (the §V-D
// extra-partition copy). free is consumed in place.
func (p *Placement) fillRingReplicas(partSizes []int64, free []int64) {
	nodes := len(p.Own)
	for n := 0; n < nodes && nodes > 1; n++ {
		prev := (n + nodes - 1) % nodes
		for _, pi := range p.Own[prev] {
			if free[n] >= partSizes[pi] {
				p.Replicas[n] = append(p.Replicas[n], pi)
				free[n] -= partSizes[pi]
			}
		}
	}
}

// Move records one partition changing owner in a delta placement.
type Move struct {
	Part int // partition index
	From int // previous owner node (the one that keeps serving until commit)
	To   int // new owner node
}

// PlanDelta is the one planner: given the previous owner of every
// partition (prevOwner[i] < 0 or >= nodes means unplaced — a new
// partition, or one stranded by a departed node), it computes a placement
// that moves as little data as possible while staying feasible and
// roughly balanced. Three passes:
//
//  1. keep — every partition stays with its previous owner if it still
//     fits, so a node join never reshuffles the survivors wholesale;
//  2. place — unplaced partitions go first-fit-decreasing to the node
//     with the most free space (the new node, usually);
//  3. fill — fresh nodes (no previous ownership: joiners) pull
//     partitions, largest first, from the most-loaded prior owners
//     until the next pull would push them past the mean share.
//
// Survivor-to-survivor moves are never planned: every owner change is
// either forced (the previous owner departed) or fills a fresh node, so
// a record always either keeps its owner or moves to a joiner — the
// invariant readers racing an online handoff rely on for re-routing.
// The returned moves list exactly the partitions whose owner changed;
// replicas are recomputed ring-wise for the new ownership. The moved
// bytes are never more than a from-scratch PlanPlacement would move,
// which the tests assert as the minimal-movement property.
func PlanDelta(partSizes []int64, prevOwner []int, nodes int, capacity int64) (*Placement, []Move, error) {
	if nodes <= 0 {
		return nil, nil, fmt.Errorf("fanstore: placement over %d nodes", nodes)
	}
	if len(prevOwner) != len(partSizes) {
		return nil, nil, fmt.Errorf("fanstore: %d prev owners for %d partitions", len(prevOwner), len(partSizes))
	}
	var total int64
	for i, s := range partSizes {
		if s < 0 {
			return nil, nil, fmt.Errorf("fanstore: partition %d has negative size", i)
		}
		if s > capacity {
			return nil, nil, fmt.Errorf("fanstore: partition %d (%d bytes) exceeds node capacity %d", i, s, capacity)
		}
		total += s
	}
	if total > capacity*int64(nodes) {
		return nil, nil, fmt.Errorf("fanstore: %d bytes of partitions exceed %d nodes x %d capacity (need %d more nodes or a higher compression ratio)",
			total, nodes, capacity, (total+capacity-1)/capacity-int64(nodes))
	}

	free := make([]int64, nodes)
	for i := range free {
		free[i] = capacity
	}
	order := make([]int, len(partSizes))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return partSizes[order[a]] > partSizes[order[b]] })

	// Pass 1: keep. Largest first, so big partitions claim their old home
	// before small ones can crowd them out.
	owner := make([]int, len(partSizes))
	for i := range owner {
		owner[i] = -1
	}
	for _, pi := range order {
		if o := prevOwner[pi]; o >= 0 && o < nodes && free[o] >= partSizes[pi] {
			owner[pi] = o
			free[o] -= partSizes[pi]
		}
	}
	// Pass 2: place the rest, first-fit decreasing to the most-free node.
	for _, pi := range order {
		if owner[pi] >= 0 {
			continue
		}
		best := 0
		for n := 1; n < nodes; n++ {
			if free[n] > free[best] {
				best = n
			}
		}
		if free[best] < partSizes[pi] {
			return nil, nil, fmt.Errorf("fanstore: partition %d does not fit any node's remaining space", pi)
		}
		owner[pi] = best
		free[best] -= partSizes[pi]
	}
	// Pass 3: fill. Only fresh nodes — nodes that previously owned
	// nothing, i.e. joiners — may receive beyond passes 1 and 2, so the
	// delta never plans a survivor-to-survivor move (with unequal
	// partition sizes a max-min balance pass would). Each round the
	// least-loaded fresh node pulls the largest partition off the
	// most-loaded prior owner that keeps it at or below the mean share;
	// bounded by the partition count, since every round moves one.
	fresh := make([]bool, nodes)
	for n := range fresh {
		fresh[n] = true
	}
	for _, o := range prevOwner {
		if o >= 0 && o < nodes {
			fresh[o] = false
		}
	}
	load := make([]int64, nodes)
	for pi, o := range owner {
		load[o] += partSizes[pi]
	}
	mean := (total + int64(nodes) - 1) / int64(nodes)
	for round := 0; round < len(partSizes); round++ {
		minN, maxN := -1, -1
		for n := 0; n < nodes; n++ {
			if fresh[n] && (minN < 0 || load[n] < load[minN]) {
				minN = n
			}
			if !fresh[n] && (maxN < 0 || load[n] > load[maxN]) {
				maxN = n
			}
		}
		if minN < 0 || maxN < 0 || load[maxN] <= load[minN] {
			break
		}
		best := -1
		for pi, o := range owner {
			if o != maxN || partSizes[pi] == 0 {
				continue
			}
			if load[minN]+partSizes[pi] <= mean && free[minN] >= partSizes[pi] {
				if best < 0 || partSizes[pi] > partSizes[best] {
					best = pi
				}
			}
		}
		if best < 0 {
			break
		}
		owner[best] = minN
		free[maxN] += partSizes[best]
		free[minN] -= partSizes[best]
		load[maxN] -= partSizes[best]
		load[minN] += partSizes[best]
	}

	p := &Placement{Own: make([][]int, nodes), Replicas: make([][]int, nodes)}
	var moves []Move
	for pi, o := range owner {
		p.Own[o] = append(p.Own[o], pi)
		if prev := prevOwner[pi]; prev >= 0 && prev != o {
			moves = append(moves, Move{Part: pi, From: prev, To: o})
		}
	}
	for n := range p.Own {
		sort.Ints(p.Own[n])
	}
	p.fillRingReplicas(partSizes, free)
	return p, moves, nil
}
