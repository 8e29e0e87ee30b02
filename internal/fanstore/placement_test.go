package fanstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"fanstore/internal/dataset"
	"fanstore/internal/mpi"
)

func TestPlanPlacementBasics(t *testing.T) {
	sizes := []int64{40, 30, 20, 10}
	p, err := PlanPlacement(sizes, 2, 60)
	if err != nil {
		t.Fatal(err)
	}
	// Every partition owned exactly once.
	seen := map[int]int{}
	for n := range p.Own {
		var used int64
		for _, pi := range p.Own[n] {
			seen[pi]++
			used += sizes[pi]
		}
		for _, pi := range p.Replicas[n] {
			used += sizes[pi]
		}
		if used > 60 {
			t.Fatalf("node %d over capacity: %d", n, used)
		}
	}
	if len(seen) != len(sizes) {
		t.Fatalf("owned %d of %d partitions", len(seen), len(sizes))
	}
	for pi, c := range seen {
		if c != 1 {
			t.Fatalf("partition %d owned %d times", pi, c)
		}
	}
}

func TestPlanPlacementReplication(t *testing.T) {
	// Plenty of slack: every node should replicate its predecessor.
	sizes := []int64{10, 10, 10, 10}
	p, err := PlanPlacement(sizes, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	for n := range p.Replicas {
		if len(p.Replicas[n]) == 0 {
			t.Fatalf("node %d has slack but no replicas", n)
		}
		prev := (n + 3) % 4
		owned := map[int]bool{}
		for _, pi := range p.Own[prev] {
			owned[pi] = true
		}
		for _, pi := range p.Replicas[n] {
			if !owned[pi] {
				t.Fatalf("node %d replicated %d, not owned by ring predecessor", n, pi)
			}
		}
	}
	// No slack: no replicas.
	tight, err := PlanPlacement([]int64{50, 50}, 2, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(tight.Replicas[0])+len(tight.Replicas[1]) != 0 {
		t.Fatal("replicas placed without slack")
	}
}

func TestPlanPlacementErrors(t *testing.T) {
	if _, err := PlanPlacement([]int64{10}, 0, 100); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := PlanPlacement([]int64{200}, 4, 100); err == nil {
		t.Error("oversized partition accepted")
	}
	if _, err := PlanPlacement([]int64{90, 90, 90}, 2, 100); err == nil {
		t.Error("aggregate overflow accepted")
	}
	if _, err := PlanPlacement([]int64{-1}, 1, 100); err == nil {
		t.Error("negative size accepted")
	}
}

func TestPlanPlacementQuick(t *testing.T) {
	// Property: whenever planning succeeds, each partition is owned once
	// and no node exceeds capacity including replicas.
	f := func(raw []uint16, nodes8 uint8) bool {
		nodes := int(nodes8%8) + 1
		const capacity = 1 << 16
		sizes := make([]int64, len(raw))
		for i, r := range raw {
			sizes[i] = int64(r)
		}
		p, err := PlanPlacement(sizes, nodes, capacity)
		if err != nil {
			return true // rejection is always allowed
		}
		seen := make(map[int]bool)
		for n := 0; n < nodes; n++ {
			var used int64
			for _, pi := range p.Own[n] {
				if seen[pi] {
					return false
				}
				seen[pi] = true
				used += sizes[pi]
			}
			for _, pi := range p.Replicas[n] {
				used += sizes[pi]
			}
			if used > capacity {
				return false
			}
		}
		return len(seen) == len(sizes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanPlacementSingleNode(t *testing.T) {
	sizes := []int64{30, 20, 10}
	p, err := PlanPlacement(sizes, 1, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Own[0]) != 3 {
		t.Fatalf("single node owns %v", p.Own[0])
	}
	if len(p.Replicas[0]) != 0 {
		t.Fatalf("single node self-replicated: %v", p.Replicas[0])
	}
}

func TestPlanPlacementAllEqualSizes(t *testing.T) {
	sizes := make([]int64, 12)
	for i := range sizes {
		sizes[i] = 25
	}
	p, err := PlanPlacement(sizes, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	for n := range p.Own {
		if len(p.Own[n]) != 3 {
			t.Fatalf("node %d owns %d equal partitions, want 3", n, len(p.Own[n]))
		}
	}
}

func TestPlanPlacementCapacityExactlyTotal(t *testing.T) {
	// Aggregate capacity == total bytes: feasible only with perfect
	// packing, which equal sizes guarantee. No slack, so no replicas.
	sizes := []int64{50, 50, 50, 50}
	p, err := PlanPlacement(sizes, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	for n := range p.Own {
		var used int64
		for _, pi := range p.Own[n] {
			used += sizes[pi]
		}
		if used != 100 {
			t.Fatalf("node %d packed %d of 100", n, used)
		}
		if len(p.Replicas[n]) != 0 {
			t.Fatalf("node %d replicated with zero slack", n)
		}
	}
}

// movedBytes sums the sizes of partitions whose owner differs from prev.
func movedBytes(sizes []int64, prev []int, p *Placement) int64 {
	owner := make([]int, len(sizes))
	for n := range p.Own {
		for _, pi := range p.Own[n] {
			owner[pi] = n
		}
	}
	var moved int64
	for pi := range sizes {
		if prev[pi] >= 0 && owner[pi] != prev[pi] {
			moved += sizes[pi]
		}
	}
	return moved
}

func TestPlanDeltaMinimalMovement(t *testing.T) {
	// A balanced 3-node cluster grows to 4: the delta plan must move only
	// what rebalancing toward the empty node requires — never more than a
	// from-scratch re-place would shuffle.
	rng := rand.New(rand.NewSource(9))
	sizes := make([]int64, 24)
	for i := range sizes {
		sizes[i] = int64(rng.Intn(900) + 100)
	}
	const capacity = 1 << 14
	base, err := PlanPlacement(sizes, 3, capacity)
	if err != nil {
		t.Fatal(err)
	}
	prev := make([]int, len(sizes))
	for n := range base.Own {
		for _, pi := range base.Own[n] {
			prev[pi] = n
		}
	}

	delta, moves, err := PlanDelta(sizes, prev, 4, capacity)
	if err != nil {
		t.Fatal(err)
	}
	// Moves report exactly the owner changes.
	var movedViaMoves int64
	for _, mv := range moves {
		if mv.From == mv.To {
			t.Fatalf("no-op move %+v", mv)
		}
		if prev[mv.Part] != mv.From {
			t.Fatalf("move %+v disagrees with prev owner %d", mv, prev[mv.Part])
		}
		movedViaMoves += sizes[mv.Part]
	}
	deltaMoved := movedBytes(sizes, prev, delta)
	if movedViaMoves != deltaMoved {
		t.Fatalf("moves total %d, placement diff %d", movedViaMoves, deltaMoved)
	}
	// The new node must receive data (the whole point of the join)...
	if deltaMoved == 0 {
		t.Fatal("join rebalance moved nothing")
	}
	// ...and the minimal-movement property must hold vs. a naive re-place.
	naive, err := PlanPlacement(sizes, 4, capacity)
	if err != nil {
		t.Fatal(err)
	}
	if naiveMoved := movedBytes(sizes, prev, naive); deltaMoved > naiveMoved {
		t.Fatalf("delta moved %d > naive re-place %d", deltaMoved, naiveMoved)
	}
	// Every partition still owned exactly once, capacity respected.
	seen := map[int]bool{}
	for n := range delta.Own {
		var used int64
		for _, pi := range delta.Own[n] {
			if seen[pi] {
				t.Fatalf("partition %d owned twice", pi)
			}
			seen[pi] = true
			used += sizes[pi]
		}
		for _, pi := range delta.Replicas[n] {
			used += sizes[pi]
		}
		if used > capacity {
			t.Fatalf("node %d over capacity: %d", n, used)
		}
	}
	if len(seen) != len(sizes) {
		t.Fatalf("owned %d of %d", len(seen), len(sizes))
	}
}

func TestPlanDeltaJoinMovesOnlyToJoiner(t *testing.T) {
	// Unequal partition sizes, 2 nodes grow to 3: every planned move must
	// target the joiner — the online handoff's re-routing invariant is
	// that a record either keeps its owner or moves to the node that just
	// joined, never between survivors.
	sizes := []int64{53, 62, 56, 60, 11, 7}
	prev := []int{0, 0, 1, 1, 0, 1}
	_, moves, err := PlanDelta(sizes, prev, 3, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) == 0 {
		t.Fatal("join rebalance moved nothing")
	}
	var total, moved int64
	for _, s := range sizes {
		total += s
	}
	for _, mv := range moves {
		if mv.To != 2 {
			t.Fatalf("move %+v targets a survivor, not the joiner", mv)
		}
		moved += sizes[mv.Part]
	}
	// The joiner fills toward — never past — the mean share.
	if mean := (total + 2) / 3; moved > mean {
		t.Fatalf("joiner received %d, past the mean share %d", moved, mean)
	}
}

func TestPlanDeltaNoChangeIsFree(t *testing.T) {
	// Same node count, everything fits where it was: zero moves.
	sizes := []int64{40, 30, 20, 10}
	base, err := PlanPlacement(sizes, 2, 60)
	if err != nil {
		t.Fatal(err)
	}
	prev := make([]int, len(sizes))
	for n := range base.Own {
		for _, pi := range base.Own[n] {
			prev[pi] = n
		}
	}
	_, moves, err := PlanDelta(sizes, prev, 2, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) != 0 {
		t.Fatalf("steady-state delta moved %v", moves)
	}
}

func TestPlanDeltaDepartedOwner(t *testing.T) {
	// prev owner index beyond the node count (a departed node): its
	// partitions are re-placed, the others stay put.
	sizes := []int64{50, 50, 50}
	prev := []int{0, 1, 2} // node 2 left; plan over 2 nodes
	p, moves, err := PlanDelta(sizes, prev, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) != 1 || moves[0].Part != 2 || moves[0].From != 2 {
		t.Fatalf("moves = %+v", moves)
	}
	owner := make([]int, 3)
	for n := range p.Own {
		for _, pi := range p.Own[n] {
			owner[pi] = n
		}
	}
	if owner[0] != 0 || owner[1] != 1 {
		t.Fatalf("survivors reshuffled: %v", owner)
	}
}

func TestNodesNeeded(t *testing.T) {
	// The §I example: 140 GB over 60 GB nodes needs 3.
	sizes := make([]int64, 14)
	for i := range sizes {
		sizes[i] = 10 << 30
	}
	n, err := NodesNeeded(sizes, 60<<30)
	if err != nil || n != 3 {
		t.Fatalf("NodesNeeded = %d, %v", n, err)
	}
	if _, err := NodesNeeded([]int64{10}, 0); err == nil {
		t.Error("zero capacity accepted")
	}
	if n, _ := NodesNeeded(nil, 100); n != 1 {
		t.Errorf("empty set needs %d nodes", n)
	}
}

func TestPlacementBalances(t *testing.T) {
	// First-fit decreasing keeps nodes within 2x of each other on random
	// workloads with adequate headroom.
	rng := rand.New(rand.NewSource(6))
	sizes := make([]int64, 64)
	var total int64
	for i := range sizes {
		sizes[i] = int64(rng.Intn(1000) + 1)
		total += sizes[i]
	}
	const nodes = 8
	p, err := PlanPlacement(sizes, nodes, total) // generous capacity
	if err != nil {
		t.Fatal(err)
	}
	var min, max int64 = 1 << 62, 0
	for n := 0; n < nodes; n++ {
		var used int64
		for _, pi := range p.Own[n] {
			used += sizes[pi]
		}
		if used < min {
			min = used
		}
		if used > max {
			max = used
		}
	}
	if min == 0 || max > 2*min {
		t.Fatalf("imbalanced ownership: min=%d max=%d", min, max)
	}
}

// TestPlacementEndToEnd drives the full §IV-C1 flow: plan placement for
// unequal partitions over fewer nodes than partitions, mount each rank
// with its owned partitions plus planned replicas, and verify the global
// namespace and replica locality.
func TestPlacementEndToEnd(t *testing.T) {
	const parts, ranks = 6, 3
	bundle, want := buildBundle(t, dataset.Language, 18, parts, 4<<10, nil)
	sizes := make([]int64, parts)
	for i, blob := range bundle.Scatter {
		sizes[i] = int64(len(blob))
	}
	capacity := 3 * sizes[0] // room for two partitions plus a replica
	plan, err := PlanPlacement(sizes, ranks, capacity)
	if err != nil {
		t.Fatal(err)
	}
	err = mpi.Run(ranks, func(c *mpi.Comm) error {
		var own, reps [][]byte
		for _, pi := range plan.Own[c.Rank()] {
			own = append(own, bundle.Scatter[pi])
		}
		for _, pi := range plan.Replicas[c.Rank()] {
			reps = append(reps, bundle.Scatter[pi])
		}
		node, err := Mount(c, own, nil, Options{Replicas: reps})
		if err != nil {
			return err
		}
		defer node.Close()
		if node.NumFiles() != len(want) {
			return fmt.Errorf("rank %d sees %d files, want %d", c.Rank(), node.NumFiles(), len(want))
		}
		for path, data := range want {
			got, err := node.ReadFile(path)
			if err != nil {
				return fmt.Errorf("rank %d: %s: %w", c.Rank(), path, err)
			}
			if !bytes.Equal(got, data) {
				return fmt.Errorf("rank %d: %s mismatch", c.Rank(), path)
			}
		}
		// Replicated partitions must have served locally.
		st := read(t, node)
		if len(reps) > 0 && st.counter("fanstore.opens.local") == 0 {
			return fmt.Errorf("rank %d: replicas unused", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
