package member

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
)

func TestMapEncodeDecodeRoundtrip(t *testing.T) {
	m := &ClusterMap{Version: 42, Nodes: []Node{
		{ID: 0, Rank: 0, State: StateAlive},
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

// TestTransitionsReturnNewMaps is the contract the control plane's one
// writer leans on: every transition returns a new map exactly one version
// on and leaves the published one — which readers may be routing on —
// untouched, backing array included.
func TestTransitionsReturnNewMaps(t *testing.T) {
	alive := func(id NodeID, rank int) Node { return Node{ID: id, Rank: rank, State: StateAlive} }
	for _, tc := range []struct {
		name string
		step func(*ClusterMap) *ClusterMap
		want []Node
	}{
		{"Next", (*ClusterMap).Next, []Node{alive(0, 0), alive(2, 5), alive(4, 1)}},
		{"WithNode", func(m *ClusterMap) *ClusterMap { return m.WithNode(alive(3, 7)) },
			[]Node{alive(0, 0), alive(2, 5), alive(3, 7), alive(4, 1)}},
		{"Without", func(m *ClusterMap) *ClusterMap { return m.Without(2) }, []Node{alive(0, 0), alive(4, 1)}},
		{"Without/unknown", func(m *ClusterMap) *ClusterMap { return m.Without(9) }, []Node{alive(0, 0), alive(2, 5), alive(4, 1)}},
		{"WithState", func(m *ClusterMap) *ClusterMap { return m.WithState(2, StateDead) },
			[]Node{alive(0, 0), {ID: 2, Rank: 5, State: StateDead}, alive(4, 1)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Spare capacity: an append in place would show in the original.
			nodes := append(make([]Node, 0, 8), alive(0, 0), alive(2, 5), alive(4, 1))
			published := &ClusterMap{Version: 6, Nodes: nodes}
			before := published.Clone()
			got := tc.step(published)
			if got == published || got.Version != 7 || !reflect.DeepEqual(got.Nodes, tc.want) {
				t.Fatalf("got v%d %v, want a new map v7 %v", got.Version, got.Nodes, tc.want)
			}
			if !reflect.DeepEqual(published, before) || nodes[:4][3] != (Node{}) {
				t.Fatalf("the published map moved: %+v (backing %v), was %+v", published, nodes[:4], before)
			}
			for _, n := range got.Nodes {
				if l, ok := got.Lookup(n.ID); !ok || l != n {
					t.Fatalf("Lookup(%d) = %+v, %v in %v", n.ID, l, ok, got.Nodes)
				}
			}
		})
	}
}

// FuzzDecodeMap fuzzes the cluster-map decoder, which every table,
// commit and stale-map refresh of the elastic control plane reaches with
// a peer's bytes: no panic, no allocation beyond a small multiple of the
// frame (a node count the frame cannot hold is refused, not reserved),
// and a map generated from the input survives encode -> decode.
func FuzzDecodeMap(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}) // 4 G nodes in a 12-byte frame
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 9, 9, 9})    // two nodes declared, a third of one present
	f.Add([]byte{7, 0, 0})                                        // truncated header
	f.Add(StaticMap(3).WithState(1, StateDead).Encode())

	f.Fuzz(func(t *testing.T, frame []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _ = DecodeMap(frame)
		runtime.ReadMemStats(&after)
		// TotalAlloc is process-wide: the slack covers the error value and
		// the fuzz worker's own traffic. The defect guarded against is GiBs.
		if got := after.TotalAlloc - before.TotalAlloc; got > uint64(16*len(frame)+1<<16) {
			t.Fatalf("%d-byte frame made DecodeMap allocate %d bytes", len(frame), got)
		}

		// Generate a map from the input: a version byte, then two bytes a
		// node — ID gap and rank, state from the gap's low bit.
		if len(frame) == 0 {
			return
		}
		gen := &ClusterMap{Version: uint64(frame[0])}
		id := NodeID(-1)
		for q := frame[1:]; len(q) >= 2; q = q[2:] {
			id += NodeID(q[0]%4) + 1 // ascending: DecodeMap keeps Nodes sorted by ID
			gen.Nodes = append(gen.Nodes, Node{ID: id, Rank: int(q[1]), State: []State{StateAlive, StateDead}[q[0]&1]})
		}
		got, err := DecodeMap(gen.Encode())
		if err != nil || got.Version != gen.Version || len(got.Nodes) != len(gen.Nodes) {
			t.Fatalf("generated map %+v came back %+v, err %v", gen, got, err)
		}
		for i, n := range got.Nodes {
			if n != gen.Nodes[i] {
				t.Fatalf("node %d came back %+v, want %+v", i, n, gen.Nodes[i])
			}
		}
	})
}
