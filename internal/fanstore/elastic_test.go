package fanstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"testing"

	"fanstore/internal/dataset"
	"fanstore/internal/member"
	"fanstore/internal/mpi"
)

// Test-only choreography tags, far from the store (1000+), member (900+)
// and rpc (1<<20+) ranges.
const (
	tagTestReady  = 555 // initial members -> joiner: cluster is up, readers running
	tagTestJoined = 556 // joiner -> members: rebalance committed, my node ID
)

// TestElasticJoinMidEpoch is the tentpole acceptance test: a 3-member
// elastic cluster serves a continuous read workload while a fourth node
// joins. The join must advance the map version, trigger a delta
// rebalance that moves partitions only onto the joiner (minimal
// movement), keep every read issued during the handoff succeeding, and
// leave post-rebalance reads routed to the new owner.
func TestElasticJoinMidEpoch(t *testing.T) {
	const (
		world   = 4
		initial = 3
		nParts  = 6
	)
	bundle, want := buildBundle(t, dataset.ImageNet, 24, nParts, 4<<10, nil)
	paths := make([]string, 0, len(want))
	for p := range want {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	err := mpi.Run(world, func(c *mpi.Comm) error {
		opts := ElasticOptions{
			Options:        Options{CacheBytes: 1 << 20},
			InitialMembers: initial,
		}

		if c.Rank() == world-1 {
			// The joiner: wait until every member is up and churning.
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
			// JoinCluster returns after the rebalance commit: this node
			// must already have pulled its share.
			if got := node.RebalancedBytes(); got <= 0 {
				return fmt.Errorf("joiner pulled %d rebalance bytes, want > 0", got)
			}
			var frame [5]byte
			binary.LittleEndian.PutUint32(frame[1:], uint32(node.ID()))
			for r := 0; r < initial; r++ {
				if err := c.Send(r, tagTestJoined, frame[:]); err != nil {
					return err
				}
			}
			// The joiner sees the whole namespace, and its own moved
			// partitions are served locally.
			for _, p := range paths {
				got, err := node.ReadFile(p)
				if err != nil {
					return fmt.Errorf("joiner: %s: %w", p, err)
				}
				if !bytes.Equal(got, want[p]) {
					return fmt.Errorf("joiner: %s: content mismatch", p)
				}
			}
			if read(t, node).counter("fanstore.opens.local") == 0 {
				return fmt.Errorf("joiner served no local opens; rebalanced partitions not serving")
			}
			return nil
		}

		// Initial members: mount with two partitions each.
		parts := [][]byte{bundle.Scatter[2*c.Rank()], bundle.Scatter[2*c.Rank()+1]}
		node, err := MountElastic(c, parts, opts)
		if err != nil {
			return err
		}
		defer node.Close()
		v0 := node.MapVersion()
		preOwner := make(map[string]int32, len(paths))
		node.mu.RLock()
		for p, m := range node.recordsLocked() {
			preOwner[p] = m.Owner
		}
		node.mu.RUnlock()
		if len(preOwner) != len(paths) {
			return fmt.Errorf("rank %d sees %d files, want %d", c.Rank(), len(preOwner), len(paths))
		}

		// Continuous read workload across the join — the "mid-epoch" part.
		stop := make(chan struct{})
		var reads atomic.Int64
		var readerErr error
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, p := range paths {
					got, err := node.ReadFile(p)
					if err != nil {
						readerErr = fmt.Errorf("rank %d mid-epoch read %s: %w", c.Rank(), p, err)
						return
					}
					if !bytes.Equal(got, want[p]) {
						readerErr = fmt.Errorf("rank %d mid-epoch read %s: content mismatch", c.Rank(), p)
						return
					}
					reads.Add(1)
				}
			}
		}()

		if err := c.Send(world-1, tagTestReady, nil); err != nil {
			return err
		}
		data, _, err := c.Recv(world-1, tagTestJoined)
		if err != nil {
			return err
		}
		joiner := int32(binary.LittleEndian.Uint32(data[1:]))
		close(stop)
		wg.Wait()
		if readerErr != nil {
			return readerErr
		}
		if reads.Load() == 0 {
			return fmt.Errorf("rank %d issued no reads during the join", c.Rank())
		}

		// The commit broadcast may still be in flight for non-coordinator
		// members; converge on it.
		moved := 0
		deadline := time.Now().Add(5 * time.Second)
		for {
			moved = 0
			node.mu.RLock()
			for _, m := range node.recordsLocked() {
				if m.Owner == joiner {
					moved++
				}
			}
			node.mu.RUnlock()
			if node.MapVersion() > v0+1 && moved > 0 {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("rank %d: no rebalance commit observed (version %d, moved %d)", c.Rank(), node.MapVersion(), moved)
			}
			time.Sleep(2 * time.Millisecond)
		}

		// Minimal movement: every record either kept its owner or moved to
		// the joiner — the rebalance must not shuffle survivors around.
		var movedPath string
		node.mu.RLock()
		for p, m := range node.recordsLocked() {
			if m.Owner != preOwner[p] && m.Owner != joiner {
				node.mu.RUnlock()
				return fmt.Errorf("rank %d: %s moved %d -> %d, not to the joiner %d", c.Rank(), p, preOwner[p], m.Owner, joiner)
			}
			if m.Owner == joiner {
				movedPath = p
			}
		}
		node.mu.RUnlock()

		if c.Rank() == 0 {
			// Coordinator: the rebalance fully drained.
			if pend := node.RebalancePending(); pend != 0 {
				return fmt.Errorf("coordinator still has %d pending rebalance transfers", pend)
			}
			// Post-rebalance routing: a direct fetch of a moved object
			// resolves its new owner (the joiner) and is served there.
			node.mu.RLock()
			m := node.recordsLocked()[movedPath]
			node.mu.RUnlock()
			if member.NodeID(m.Owner) == node.ID() {
				return fmt.Errorf("coordinator owns the moved path %s", movedPath)
			}
			_, blob, _, _, err := node.fetchRemote(m)
			if err != nil {
				return fmt.Errorf("post-rebalance fetch of %s from new owner: %w", movedPath, err)
			}
			if len(blob) == 0 {
				return fmt.Errorf("post-rebalance fetch of %s returned no bytes", movedPath)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// BenchmarkRebalanceUnderLoad measures read throughput on a serving
// member while a third node joins the elastic cluster and the delta
// rebalance streams partitions to it over the same worker pool. The
// interesting number is how far the handoff traffic degrades foreground
// reads — the paper's elasticity story stands or falls on reads staying
// serviceable through the move.
func BenchmarkRebalanceUnderLoad(b *testing.B) {
	const (
		world    = 3
		initial  = 2
		nParts   = 4
		nFiles   = 16
		fileSize = 32 << 10
	)
	bundle, want := buildBundle(b, dataset.ImageNet, nFiles, nParts, fileSize, nil)
	paths := make([]string, 0, len(want))
	for p := range want {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	err := mpi.Run(world, func(c *mpi.Comm) error {
		opts := ElasticOptions{
			// Immediate keeps every read cold, so the measured loop
			// exercises the fetch path the rebalance stream competes with.
			Options:        Options{CachePolicy: Immediate},
			InitialMembers: initial,
		}

		if c.Rank() == world-1 {
			// The joiner: wait for the measured loop to start, then join
			// so the rebalance overlaps it.
			if _, _, err := c.Recv(0, tagTestReady); err != nil {
				return err
			}
			node, err := JoinCluster(c, 0, opts)
			if err != nil {
				return err
			}
			defer node.Close()
			if node.RebalancedBytes() <= 0 {
				return fmt.Errorf("joiner pulled no rebalance bytes; benchmark measured nothing")
			}
			for r := 0; r < initial; r++ {
				if err := c.Send(r, tagTestJoined, nil); err != nil {
					return err
				}
			}
			return nil
		}

		parts := [][]byte{bundle.Scatter[2*c.Rank()], bundle.Scatter[2*c.Rank()+1]}
		node, err := MountElastic(c, parts, opts)
		if err != nil {
			return err
		}
		defer node.Close()
		if c.Rank() != 0 {
			// Keep serving (including the old-owner side of the handoff)
			// until the joiner commits.
			_, _, err := c.Recv(world-1, tagTestJoined)
			return err
		}

		b.ResetTimer()
		if err := c.Send(world-1, tagTestReady, nil); err != nil {
			return err
		}
		for i := 0; i < b.N; i++ {
			if _, err := node.ReadFile(paths[i%len(paths)]); err != nil {
				return err
			}
		}
		b.StopTimer()
		b.SetBytes(int64(fileSize))
		_, _, err = c.Recv(world-1, tagTestJoined)
		return err
	})
	if err != nil {
		b.Fatal(err)
	}
}

// TestElasticLeaveDrains shrinks the cluster: a member leaves, its
// partitions are re-homed onto the survivors while it still serves, and
// the survivors keep reading the whole namespace afterwards.
func TestElasticLeaveDrains(t *testing.T) {
	const (
		world  = 3
		nParts = 6
	)
	bundle, want := buildBundle(t, dataset.Language, 18, nParts, 4<<10, nil)
	paths := make([]string, 0, len(want))
	for p := range want {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	err := mpi.Run(world, func(c *mpi.Comm) error {
		opts := ElasticOptions{Options: Options{CacheBytes: 1 << 20}}
		parts := [][]byte{bundle.Scatter[2*c.Rank()], bundle.Scatter[2*c.Rank()+1]}
		node, err := MountElastic(c, parts, opts)
		if err != nil {
			return err
		}

		if c.Rank() == world-1 {
			leaverID := node.ID()
			if err := node.LeaveCluster(); err != nil {
				return err
			}
			var frame [5]byte
			binary.LittleEndian.PutUint32(frame[1:], uint32(leaverID))
			for r := 0; r < world-1; r++ {
				if err := c.Send(r, tagTestJoined, frame[:]); err != nil {
					return err
				}
			}
			return nil
		}

		defer node.Close()
		data, _, err := c.Recv(world-1, tagTestJoined)
		if err != nil {
			return err
		}
		leaver := int32(binary.LittleEndian.Uint32(data[1:]))

		// Converge on the drain commit: no record may still name the
		// departed node.
		deadline := time.Now().Add(5 * time.Second)
		for {
			orphans := 0
			node.mu.RLock()
			for _, m := range node.recordsLocked() {
				if m.Owner == leaver {
					orphans++
				}
			}
			node.mu.RUnlock()
			if orphans == 0 {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("rank %d: %d records still owned by departed node %d", c.Rank(), orphans, leaver)
			}
			time.Sleep(2 * time.Millisecond)
		}

		// The survivors serve the full namespace, including everything
		// the leaver used to own.
		for _, p := range paths {
			got, err := node.ReadFile(p)
			if err != nil {
				return fmt.Errorf("rank %d after leave: %s: %w", c.Rank(), p, err)
			}
			if !bytes.Equal(got, want[p]) {
				return fmt.Errorf("rank %d after leave: %s: content mismatch", c.Rank(), p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestVanishedObjectBoundsRefreshLoop is the stale-map-loop regression
// test: a metadata record naming an owner that authoritatively does not
// hold the object (a genuinely deleted/ghost file) must not spin the
// refresh-and-retry loop. The fetch is allowed at most two map
// refreshes, and the caller gets a distinguishable ErrVanished instead
// of a generic transport error.
func TestVanishedObjectBoundsRefreshLoop(t *testing.T) {
	bundle, want := buildBundle(t, dataset.EM, 8, 2, 4<<10, nil)
	err := mpi.Run(2, func(c *mpi.Comm) error {
		node, err := MountElastic(c, [][]byte{bundle.Scatter[c.Rank()]}, ElasticOptions{
			Options:        Options{CacheBytes: 1 << 20},
			InitialMembers: 2,
		})
		if err != nil {
			return err
		}
		defer node.Close()
		if c.Rank() != 0 {
			// Serve fetches (each will answer not-found) until rank 0 is done.
			_, _, err := c.Recv(0, tagTestReady)
			return err
		}

		// Inject a ghost record: the map is current, the named owner is
		// alive, but no rank holds the object — the deleted-file shape.
		node.addMeta(FileMeta{
			Path:       "ghost/deleted.bin",
			Size:       64,
			Owner:      1,
			MapVersion: node.MapVersion(),
		})
		before := node.mapRefreshes.Value()
		_, err = node.ReadFile("ghost/deleted.bin")
		if err == nil {
			return fmt.Errorf("reading a ghost object succeeded")
		}
		if !errors.Is(err, ErrVanished) {
			return fmt.Errorf("ghost read error = %v, want ErrVanished", err)
		}
		if d := node.mapRefreshes.Value() - before; d > 2 {
			return fmt.Errorf("ghost read spun %d map refreshes, want <= 2", d)
		}
		// A second read must stay bounded too (no per-path state leak).
		before = node.mapRefreshes.Value()
		if _, err := node.ReadFile("ghost/deleted.bin"); err == nil {
			return fmt.Errorf("second ghost read succeeded")
		}
		if d := node.mapRefreshes.Value() - before; d > 2 {
			return fmt.Errorf("second ghost read spun %d refreshes, want <= 2", d)
		}
		// Real objects still read fine after the vanished diagnosis.
		for p, w := range want {
			got, err := node.ReadFile(p)
			if err != nil {
				return fmt.Errorf("%s after ghost: %w", p, err)
			}
			if !bytes.Equal(got, w) {
				return fmt.Errorf("%s after ghost: content mismatch", p)
			}
		}
		return c.Send(1, tagTestReady, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestVanishedObjectOnStaticMount is the identity-map half of the test
// above: a static mount diagnoses a ghost record as ErrVanished through
// the same path, and since its map never moves the diagnosis costs no
// map refresh at all.
func TestVanishedObjectOnStaticMount(t *testing.T) {
	bundle, _ := buildBundle(t, dataset.EM, 8, 2, 4<<10, nil)
	err := mpi.Run(2, func(c *mpi.Comm) error {
		node, err := Mount(c, [][]byte{bundle.Scatter[c.Rank()]}, nil, Options{CacheBytes: 1 << 20})
		if err != nil {
			return err
		}
		defer node.Close()
		if c.Rank() != 0 {
			return nil // Close's barrier keeps this rank serving until rank 0 is done
		}
		node.addMeta(FileMeta{Path: "ghost/deleted.bin", Size: 64, Owner: 1, MapVersion: node.MapVersion()})
		if _, err := node.ReadFile("ghost/deleted.bin"); !errors.Is(err, ErrVanished) {
			return fmt.Errorf("ghost read error = %v, want ErrVanished", err)
		}
		if got := node.mapRefreshes.Value(); got != 0 {
			return fmt.Errorf("ghost read on a static mount counted %d map refreshes, want 0", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
