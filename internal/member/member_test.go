package member

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"fanstore/internal/mpi"
)

func TestMapEncodeDecodeRoundtrip(t *testing.T) {
	m := &ClusterMap{Version: 42, Nodes: []Node{
		{ID: 0, Rank: 0, State: StateAlive},
		{ID: 3, Rank: 2, State: StateJoining},
		{ID: 7, Rank: 5, State: StateLeaving},
		{ID: 9, Rank: 1, State: StateDead},
	}}
	got, err := DecodeMap(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != m.Version || len(got.Nodes) != len(m.Nodes) {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", got, m)
	}
	for i, n := range got.Nodes {
		if n != m.Nodes[i] {
			t.Fatalf("node %d: %+v vs %+v", i, n, m.Nodes[i])
		}
	}
	if _, err := DecodeMap(m.Encode()[:10]); err == nil {
		t.Fatal("truncated frame decoded")
	}
}

func TestRankOfStaleAndDead(t *testing.T) {
	m := &ClusterMap{Version: 5, Nodes: []Node{
		{ID: 1, Rank: 0, State: StateAlive},
		{ID: 2, Rank: 1, State: StateDead},
	}}
	if r, err := m.RankOf(1); err != nil || r != 0 {
		t.Fatalf("RankOf(1) = %d, %v", r, err)
	}
	for _, id := range []NodeID{2, 99} {
		_, err := m.RankOf(id)
		if !errors.Is(err, ErrStaleMap) {
			t.Fatalf("RankOf(%d): want ErrStaleMap, got %v", id, err)
		}
		var se *StaleMapError
		if !errors.As(err, &se) || !se.Retryable() || se.Have != 5 {
			t.Fatalf("RankOf(%d): bad typed error %v", id, err)
		}
	}
}

func TestViewMonotonicUpdate(t *testing.T) {
	v := NewView(StaticMap(2))
	if v.Version() != 1 {
		t.Fatalf("static version %d", v.Version())
	}
	if v.Update(&ClusterMap{Version: 1}) {
		t.Fatal("equal version installed")
	}
	if !v.Update(&ClusterMap{Version: 3, Nodes: []Node{{ID: 0, Rank: 0, State: StateAlive}}}) {
		t.Fatal("newer version rejected")
	}
	if v.Update(&ClusterMap{Version: 2}) {
		t.Fatal("older version installed after newer")
	}
	if v.Version() != 3 {
		t.Fatalf("version %d after updates", v.Version())
	}
}

// tagDone carries a joiner's "my last round trip is over" to the
// coordinator rank (it collides with no member-protocol tag).
const tagDone = 777

// holdOpen keeps the coordinator rank — and so its serve loop, which the
// deferred Close stops — alive until every listed joiner has sent
// tagDone. The coordinator sees the target map before the joiners do;
// returning then would strand a joiner inside a Sync whose ack never
// comes, and the world would abort on the 30 s ackTimeout.
func holdOpen(c *mpi.Comm, joiners ...int) error {
	for _, r := range joiners {
		if _, _, err := c.Recv(r, tagDone); err != nil {
			return err
		}
	}
	return nil
}

// TestJoinLeaveLifecycle runs a coordinator and three members through
// join, broadcast convergence, sync, and leave — concurrently, under the
// race detector in `make ci`.
func TestJoinLeaveLifecycle(t *testing.T) {
	const ranks = 4
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			mem := StartCoordinator(c)
			defer mem.Close()
			if mem.ID() != 0 || !mem.IsCoordinator() {
				return fmt.Errorf("coordinator identity wrong: %d", mem.ID())
			}
			// Wait until every member has joined and one has left.
			for {
				m, err := mem.Sync()
				if err != nil {
					return err
				}
				if m.Version >= 5 && len(m.Alive()) == ranks-1 {
					break
				}
			}
			// Placement-commit bump: version advances with no member change.
			before := mem.View().Version()
			cm, err := mem.Advance()
			if err != nil {
				return err
			}
			if cm.Version != before+1 {
				return fmt.Errorf("advance: %d -> %d", before, cm.Version)
			}
			return holdOpen(c, 1, 2)
		}
		mem, err := Join(c, 0)
		if err != nil {
			return err
		}
		if mem.ID() == 0 {
			return fmt.Errorf("member got coordinator id")
		}
		if _, ok := mem.View().Map().Lookup(mem.ID()); !ok {
			return fmt.Errorf("own id %d missing from joined map", mem.ID())
		}
		if rank, err := mem.View().Resolve(0); err != nil || rank != 0 {
			return fmt.Errorf("resolve coordinator: %d, %v", rank, err)
		}
		if c.Rank() == 3 {
			// Join then immediately leave: survivors must converge on a
			// map without this node.
			if err := mem.Leave(); err != nil {
				return err
			}
			if _, err := mem.View().Resolve(mem.ID()); !errors.Is(err, ErrStaleMap) {
				return fmt.Errorf("left node still resolves")
			}
			return nil
		}
		defer mem.Close()
		// Converge: broadcasts must eventually show 3 alive members
		// (coordinator + ranks 1, 2) once rank 3 left. Sync as fallback
		// since broadcast order vs. our join is not deterministic.
		for {
			m, err := mem.Sync()
			if err != nil {
				return err
			}
			if m.Version >= 5 && len(m.Alive()) == ranks-1 {
				return c.Send(0, tagDone, nil)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMalformedRequestStillAcked sends protocol garbage on the request
// tag: the coordinator must answer every tagMemberReq (here with the
// unchanged map) so a buggy or truncated frame can never leave the
// requester wedged in its Recv.
func TestMalformedRequestStillAcked(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			mem := StartCoordinator(c)
			defer mem.Close()
			for {
				m, err := mem.Sync()
				if err != nil {
					return err
				}
				if len(m.Alive()) == 2 {
					break
				}
			}
			// Hold the cluster open until the member is done probing.
			return holdOpen(c, 1)
		}
		mem, err := Join(c, 0)
		if err != nil {
			return err
		}
		defer mem.Close()
		for _, frame := range [][]byte{
			{opLeave},       // truncated: no node id
			{opLeave, 0xff}, // still short of the 4-byte id
			{0x7f},          // unknown op
		} {
			if err := c.Send(0, tagMemberReq, frame); err != nil {
				return err
			}
			resp, _, err := c.RecvDeadline(0, tagMemberAck, 5*time.Second)
			if err != nil {
				return fmt.Errorf("frame %v: no ack: %w", frame, err)
			}
			m, err := DecodeMap(resp)
			if err != nil {
				return fmt.Errorf("frame %v: ack not a map: %w", frame, err)
			}
			if len(m.Alive()) != 2 {
				return fmt.Errorf("frame %v: malformed request mutated the map: %+v", frame, m)
			}
		}
		return c.Send(0, tagDone, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentJoins hammers the coordinator with simultaneous joins:
// IDs must be unique and the final map must hold everyone.
func TestConcurrentJoins(t *testing.T) {
	const ranks = 6
	var mu sync.Mutex
	ids := map[NodeID]int{}
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			mem := StartCoordinator(c)
			defer mem.Close()
			for {
				m, err := mem.Sync()
				if err != nil {
					return err
				}
				if len(m.Alive()) == ranks {
					return holdOpen(c, 1, 2, 3, 4, 5)
				}
			}
		}
		mem, err := Join(c, 0)
		if err != nil {
			return err
		}
		defer mem.Close()
		mu.Lock()
		ids[mem.ID()]++
		mu.Unlock()
		for {
			m, err := mem.Sync()
			if err != nil {
				return err
			}
			if len(m.Alive()) == ranks {
				return c.Send(0, tagDone, nil)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != ranks-1 {
		t.Fatalf("%d unique ids for %d joiners: %v", len(ids), ranks-1, ids)
	}
	for id, n := range ids {
		if n != 1 {
			t.Fatalf("id %d assigned %d times", id, n)
		}
	}
}
