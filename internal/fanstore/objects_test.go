package fanstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"sort"
	"sync"
	"testing"

	"fanstore/internal/dataset"
	"fanstore/internal/member"
	"fanstore/internal/mpi"
)

// datasetIDs snapshots the object ID of every dataset path on n — every
// record that is not a written file — and checks the numbering: the first
// IDs, one per dataset record, in path order.
func datasetIDs(n *Node) (map[string]uint32, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	ids := make(map[string]uint32)
	for path, id := range n.names {
		if m := n.objs[id].meta; !m.Written {
			ids[path] = id
		}
	}
	paths := make([]string, 0, len(ids))
	for p := range ids {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for i, p := range paths {
		if ids[p] != uint32(i) {
			return nil, fmt.Errorf("rank %d: %s has ID %d, its place in path order is %d", n.Rank(), p, ids[p], i)
		}
	}
	return ids, nil
}

// TestObjectIDsAgreeAcrossRanks: every rank of a three-rank static mount
// numbers the dataset the same way; a written file gets an ID past the
// dataset range on its writer and on a rank that looked it up, and the
// dataset's IDs do not move; a path nobody knows is still ErrNotExist to
// ReadDir, Stat and Open.
func TestObjectIDsAgreeAcrossRanks(t *testing.T) {
	const world = 3
	bundle, want := buildBundle(t, dataset.ImageNet, 30, world, 1<<10, nil)
	var mu sync.Mutex
	seen := make([]map[string]uint32, world)
	err := mpi.Run(world, func(c *mpi.Comm) error {
		node, err := Mount(c, [][]byte{bundle.Scatter[c.Rank()]}, nil, Options{CacheBytes: 1 << 20})
		if err != nil {
			return err
		}
		defer node.Close()
		ids, err := datasetIDs(node)
		if err != nil {
			return err
		}
		if len(ids) != len(want) {
			return fmt.Errorf("rank %d numbered %d files, the dataset has %d", c.Rank(), len(ids), len(want))
		}
		mu.Lock()
		seen[c.Rank()] = ids
		mu.Unlock()

		const written = "out/ids.bin"
		if c.Rank() == 0 {
			if err := node.WriteFile(written, []byte("weights")); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() != 2 { // rank 2 never asks, so it never learns the file
			if _, err := node.ReadFile(written); err != nil {
				return err
			}
			id, _, ok := node.resolve(written)
			if !ok || id < uint32(len(ids)) {
				return fmt.Errorf("rank %d: written file has ID %d (known %v), the dataset range ends at %d", c.Rank(), id, ok, len(ids))
			}
		}
		after, err := datasetIDs(node)
		if err != nil {
			return err
		}
		if !maps.Equal(after, ids) {
			return fmt.Errorf("rank %d: dataset IDs moved after a write", c.Rank())
		}
		for name, call := range map[string]func() error{
			"ReadDir": func() error { _, err := node.ReadDir("no/such/dir"); return err },
			"Stat":    func() error { _, err := node.Stat("no/such/file"); return err },
			"Open":    func() error { _, err := node.Open("no/such/file"); return err },
		} {
			if err := call(); !errors.Is(err, ErrNotExist) {
				return fmt.Errorf("rank %d: %s of an unknown path: %v, want ErrNotExist", c.Rank(), name, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < world; r++ {
		if !maps.Equal(seen[r], seen[0]) {
			t.Fatalf("rank %d numbers the dataset differently from rank 0", r)
		}
	}
}

// TestObjectIDsSurviveJoinAndRebalance: an elastic cluster's members
// number the dataset at mount, a joiner numbers the table it is sent the
// same way, and the join's rebalance — records rewritten to new owners,
// partitions moved — changes no ID on any rank.
func TestObjectIDsSurviveJoinAndRebalance(t *testing.T) {
	const world, initial = 3, 2
	bundle, want := buildBundle(t, dataset.ImageNet, 24, 4, 1<<10, nil)
	var mu sync.Mutex
	before := make([]map[string]uint32, world)
	after := make([]map[string]uint32, world)
	record := func(into []map[string]uint32, n *Node) error {
		ids, err := datasetIDs(n)
		if err != nil {
			return err
		}
		if len(ids) != len(want) {
			return fmt.Errorf("rank %d numbered %d files, the dataset has %d", n.Rank(), len(ids), len(want))
		}
		mu.Lock()
		into[n.Rank()] = ids
		mu.Unlock()
		return nil
	}
	err := mpi.Run(world, func(c *mpi.Comm) error {
		opts := ElasticOptions{Options: Options{CacheBytes: 1 << 20}, InitialMembers: initial}
		if c.Rank() == world-1 {
			for i := 0; i < initial; i++ {
				if _, _, err := c.Recv(mpi.AnySource, tagTestReady); err != nil {
					return err
				}
			}
			node, err := JoinCluster(c, 0, opts)
			if err != nil {
				return err
			}
			defer node.Close()
			if node.RebalancedBytes() <= 0 {
				return fmt.Errorf("the join moved no partition: nothing was rebalanced")
			}
			if err := record(after, node); err != nil {
				return err
			}
			var frame [5]byte
			binary.LittleEndian.PutUint32(frame[1:], uint32(node.ID()))
			for r := 0; r < initial; r++ {
				if err := c.Send(r, tagTestJoined, frame[:]); err != nil {
					return err
				}
			}
			return c.Barrier()
		}
		parts := [][]byte{bundle.Scatter[2*c.Rank()], bundle.Scatter[2*c.Rank()+1]}
		node, err := MountElastic(c, parts, opts)
		if err != nil {
			return err
		}
		defer node.Close()
		if err := record(before, node); err != nil {
			return err
		}
		if err := c.Send(world-1, tagTestReady, nil); err != nil {
			return err
		}
		frame, _, err := c.Recv(world-1, tagTestJoined)
		if err != nil {
			return err
		}
		// The commit reaches every member; wait for this one's, then read
		// through the moved records.
		joiner := member.NodeID(binary.LittleEndian.Uint32(frame[1:]))
		if err := awaitCond("the join's commit", func() bool { return ownedBy(node, joiner) > 0 }); err != nil {
			return err
		}
		for p, data := range want {
			got, err := node.ReadFile(p)
			if err != nil {
				return fmt.Errorf("rank %d: %s: %w", c.Rank(), p, err)
			}
			if string(got) != string(data) {
				return fmt.Errorf("rank %d: %s: content mismatch", c.Rank(), p)
			}
		}
		if err := record(after, node); err != nil {
			return err
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < world; r++ {
		if r < initial && !maps.Equal(before[r], before[0]) {
			t.Errorf("member %d numbered the dataset differently from member 0 at mount", r)
		}
		if !maps.Equal(after[r], before[0]) {
			t.Errorf("rank %d: after the join and its rebalance the IDs differ from the mount's", r)
		}
	}
}
