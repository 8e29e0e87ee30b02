package fanstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fanstore/internal/dataset"
	"fanstore/internal/ec"
	"fanstore/internal/member"
	"fanstore/internal/mpi"
	"fanstore/internal/obs"
)

// Chaos-test choreography tags (see elastic_test.go for 555/556).
const (
	tagTestKilled   = 557 // victim -> coord: I fail-stopped; frame carries my node ID
	tagTestRepaired = 558 // coord -> survivors: repair committed on the coordinator
	tagTestApplied  = 559 // survivor -> coord: commit applied here; frame carries stats
	tagTestFreeze   = 560 // coord -> survivors: all members applied, run the freeze check
	tagTestRelease  = 561 // coord -> victim: test over, return from mpi.Run
)

// TestECKillRankDegradedReadsAndRepair is the kill table: a cluster loses
// a rank without warning mid-workload, under each redundancy.
//
// Under ec(k,m) every read issued by the survivors must keep succeeding —
// first degraded (reconstructed from surviving shards), then, once the
// coordinator's repair job re-homes the dead rank's partitions, via the
// new owners — and after the repair commit lands everywhere, reads must
// stop counting as degraded. ec(1,0) and ec(1,1) are 2- and 3-way
// mirroring through the same path.
//
// Under none the dead rank's files are lost: once a survivor has the
// death on its map, each read of them returns ErrLost at once, with no
// rpc call and no map refresh; every other read stays byte-exact and the
// repair job fails nothing.
//
// The last row kills two of three ranks under ec(2,1), more than the code
// survives. Run with -race.
func TestECKillRankDegradedReadsAndRepair(t *testing.T) {
	for _, red := range []string{"ec(2,1)", "ec(1,0)", "ec(1,1)", "none"} {
		t.Run(red, func(t *testing.T) { killOneRank(t, red) })
	}
	t.Run("ec(2,1)-two-killed", killTwoOfThree)
}

// killOneRank is one single-victim row of the kill table.
func killOneRank(t *testing.T, redundancy string) {
	const (
		world      = 4
		nParts     = 8
		nFiles     = 24
		fileSize   = 4 << 10
		victimRank = 2
		fetchWait  = 200 * time.Millisecond
	)
	began := time.Now()
	bundle, want := buildBundle(t, dataset.ImageNet, nFiles, nParts, fileSize, nil)
	paths := make([]string, 0, len(want))
	for p := range want {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	red, err := ParseRedundancy(redundancy)
	if err != nil {
		t.Fatal(err)
	}
	lossy := red == Redundancy{}

	err = mpi.Run(world, func(c *mpi.Comm) (rerr error) {
		opts := ElasticOptions{
			Options: Options{
				// Immediate keeps every read on the fetch path (no warm
				// cache masking the dead rank), and the timeout is what
				// turns a call to the corpse into an EC fallback.
				CacheBytes:   1 << 20,
				CachePolicy:  Immediate,
				FetchTimeout: fetchWait,
				Redundancy:   red,
			},
			InitialMembers: world,
			PullTimeout:    2 * time.Second,
		}
		parts := [][]byte{bundle.Scatter[2*c.Rank()], bundle.Scatter[2*c.Rank()+1]}
		node, err := MountElastic(c, parts, opts)
		if err != nil {
			return err
		}
		// Shard placement crosses ranks during mount: nobody may die (or
		// even proceed) until every member's pushes have landed.
		if err := c.Barrier(); err != nil {
			return err
		}

		if c.Rank() == victimRank {
			// Sanity: the victim serves normally before the crash.
			if _, err := node.ReadFile(paths[0]); err != nil {
				return fmt.Errorf("victim pre-crash read: %w", err)
			}
			id := node.ID()
			node.FailStop()
			var frame [5]byte
			binary.LittleEndian.PutUint32(frame[1:], uint32(id))
			if err := c.Send(0, tagTestKilled, frame[:]); err != nil {
				return err
			}
			// The harness needs every rank to return; park until the
			// survivors are done with the world.
			_, _, err := c.Recv(0, tagTestRelease)
			return err
		}

		defer func() {
			node.Close()
			// Mailbox empty at shutdown: through timed-out calls to the
			// corpse, failovers, shard gathers and repair pulls, every
			// message that reached this survivor was received or reaped.
			if n := c.Pending(); n != 0 && rerr == nil {
				rerr = fmt.Errorf("rank %d: %d messages left queued at shutdown", c.Rank(), n)
			}
		}()

		// The victim's identity, from the map every member mounted with.
		victimID := nodeAt(node.View().Map(), victimRank)
		deadHere := func() bool {
			v, _ := node.View().Map().Lookup(victimID)
			return v.State == member.StateDead
		}

		// Continuous read workload across the crash and repair. Under none
		// a read of the victim's files may fail: with ErrRemoteGone while
		// this node still has the victim alive, with ErrLost at any time.
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
					dead := deadHere()
					victims := lossy && ownerOf(node, p) == victimID
					got, err := node.ReadFile(p)
					switch {
					case err == nil && !bytes.Equal(got, want[p]):
						readerErr = fmt.Errorf("rank %d mid-crash read %s: content mismatch", c.Rank(), p)
						return
					case err == nil, victims && errors.Is(err, ErrLost), victims && !dead && errors.Is(err, ErrRemoteGone):
					default:
						readerErr = fmt.Errorf("rank %d mid-crash read %s (victim dead here: %v): %w", c.Rank(), p, dead, err)
						return
					}
					reads.Add(1)
				}
			}
		}()

		// converged: under ec every record is re-homed; under none the
		// death is on this node's map and the records stay the victim's.
		converged := func() bool {
			if lossy {
				return deadHere()
			}
			return ownedBy(node, victimID) == 0
		}
		if c.Rank() == 0 {
			if _, _, err := c.Recv(victimRank, tagTestKilled); err != nil {
				return err
			}
			// Hold the un-repaired state long enough that every survivor's
			// reader demonstrably meets the corpse before the repair even
			// starts.
			time.Sleep(300 * time.Millisecond)
			if err := node.MarkDead(victimID); err != nil {
				return fmt.Errorf("MarkDead: %w", err)
			}
			// Converge: repair queue drained, every record re-homed (ec).
			deadline := time.Now().Add(15 * time.Second)
			for !converged() || !node.ectrl.idle() || node.RebalancePending() != 0 {
				if time.Now().After(deadline) {
					return fmt.Errorf("repair did not converge: %d orphaned records, %d pending",
						ownedBy(node, victimID), node.RebalancePending())
				}
				time.Sleep(10 * time.Millisecond)
			}
			for _, r := range []int{1, 3} {
				if err := c.Send(r, tagTestRepaired, nil); err != nil {
					return err
				}
			}
		} else {
			if _, _, err := c.Recv(0, tagTestRepaired); err != nil {
				return err
			}
			// Wait for the commit broadcast to land locally.
			if err := awaitCond("the commit", converged); err != nil {
				return fmt.Errorf("rank %d: %w", c.Rank(), err)
			}
		}

		close(stop)
		wg.Wait()
		if readerErr != nil {
			return readerErr
		}
		if reads.Load() == 0 {
			return fmt.Errorf("rank %d issued no reads across the crash", c.Rank())
		}
		var degraded, repaired int64
		if !lossy {
			degraded, repaired = node.ec.degradedReads.Value(), node.ec.repairBytes.Value()
			if degraded == 0 {
				return fmt.Errorf("rank %d survived the crash without a single degraded read", c.Rank())
			}
		}

		// Report in / fan out the freeze check so no member starts it
		// before every member has applied the commit.
		var frame [9]byte
		binary.LittleEndian.PutUint64(frame[1:], uint64(repaired))
		if c.Rank() == 0 {
			for i := 0; i < 2; i++ {
				data, _, err := c.Recv(mpi.AnySource, tagTestApplied)
				if err != nil {
					return err
				}
				repaired += int64(binary.LittleEndian.Uint64(data[1:]))
			}
			if repaired == 0 && !lossy {
				return fmt.Errorf("repair moved zero bytes across the cluster")
			}
			if got := read(t, node).counter("rebalance.jobs.failed"); got != 0 {
				return fmt.Errorf("rebalance.jobs.failed = %d after the death, want 0", got)
			}
			for _, r := range []int{1, 3} {
				if err := c.Send(r, tagTestFreeze, nil); err != nil {
					return err
				}
			}
		} else {
			if err := c.Send(0, tagTestApplied, frame[:]); err != nil {
				return err
			}
			if _, _, err := c.Recv(0, tagTestFreeze); err != nil {
				return err
			}
		}

		// Freeze check: with the repair committed everywhere, reads route
		// to the new owners and must not count as degraded anymore; under
		// none, a lost file's read fails at once and asks nobody.
		var lost, live []string
		for _, p := range paths {
			if lossy && ownerOf(node, p) == victimID {
				lost = append(lost, p)
			} else {
				live = append(live, p)
			}
		}
		if lossy && len(lost) == 0 {
			return fmt.Errorf("rank %d found none of the victim's files", c.Rank())
		}
		before := read(t, node)
		for _, p := range lost {
			start := time.Now()
			if _, err := node.ReadFile(p); !errors.Is(err, ErrLost) {
				return fmt.Errorf("rank %d read of lost %s = %v, want ErrLost", c.Rank(), p, err)
			}
			if took := time.Since(start); took >= fetchWait {
				return fmt.Errorf("rank %d read of lost %s took %v, a fetch timeout", c.Rank(), p, took)
			}
		}
		after := read(t, node)
		for _, name := range []string{"rpc.client.calls", "fanstore.map.refreshes"} {
			if b, a := before.counter(name), after.counter(name); a != b {
				return fmt.Errorf("rank %d: %s went %d -> %d over reads of lost files", c.Rank(), name, b, a)
			}
		}
		for _, p := range live {
			got, err := node.ReadFile(p)
			if err != nil {
				return fmt.Errorf("rank %d post-repair read %s: %w", c.Rank(), p, err)
			}
			if !bytes.Equal(got, want[p]) {
				return fmt.Errorf("rank %d post-repair read %s: content mismatch", c.Rank(), p)
			}
		}
		if !lossy && node.ec.degradedReads.Value() != degraded {
			return fmt.Errorf("rank %d: %d post-repair reads still degraded", c.Rank(), node.ec.degradedReads.Value()-degraded)
		}

		if c.Rank() == 0 {
			return c.Send(victimRank, tagTestRelease, nil)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(began); lossy && took > 2*time.Second {
		t.Errorf("the none row took %v, want < 2s: a lost read must not wait out retries", took)
	}
}

// killTwoOfThree is the kill table's over-the-limit row: two of three
// ec(2,1) ranks die. Each stripe kept one shard on the survivor, fewer
// than k, so the dead ranks' files are lost and their reads return
// ErrLost within one fetch timeout; the survivor's own files still read.
func killTwoOfThree(t *testing.T) {
	const fetchWait = 200 * time.Millisecond
	bundle, want := buildBundle(t, dataset.ImageNet, 12, 6, 4<<10, nil)
	err := mpi.Run(3, func(c *mpi.Comm) (rerr error) {
		opts := ElasticOptions{
			Options: Options{
				CacheBytes:   1 << 20,
				CachePolicy:  Immediate,
				FetchTimeout: fetchWait,
				Redundancy:   Redundancy{K: 2, M: 1},
			},
			PullTimeout: 200 * time.Millisecond,
		}
		node, err := MountElastic(c, [][]byte{bundle.Scatter[2*c.Rank()], bundle.Scatter[2*c.Rank()+1]}, opts)
		if err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() != 0 {
			node.FailStop()
			if err := c.Send(0, tagTestKilled, idBytes(node.ID())); err != nil {
				return err
			}
			_, _, err := c.Recv(0, tagTestRelease)
			return err
		}
		defer func() {
			node.Close()
			if n := c.Pending(); n != 0 && rerr == nil {
				rerr = fmt.Errorf("rank %d: %d messages left queued at shutdown", c.Rank(), n)
			}
			for r := 1; r < 3; r++ {
				_ = c.Send(r, tagTestRelease, nil)
			}
		}()
		dead := make(map[member.NodeID]bool)
		for i := 0; i < 2; i++ {
			data, _, err := c.Recv(mpi.AnySource, tagTestKilled)
			if err != nil {
				return err
			}
			dead[idOf(data)] = true
		}
		for id := range dead {
			if err := node.MarkDead(id); err != nil {
				return err
			}
		}
		// The repair jobs fail: no partition of the dead has k shards left.
		if err := awaitCond("the repair jobs to give up", node.ectrl.idle); err != nil {
			return err
		}
		lost := 0
		for p := range want {
			start := time.Now()
			got, err := node.ReadFile(p)
			if dead[ownerOf(node, p)] {
				lost++
				if !errors.Is(err, ErrLost) || !errors.Is(err, ec.ErrShortSet) {
					return fmt.Errorf("read of lost %s = %v, want ErrLost from a short shard set", p, err)
				}
				if took := time.Since(start); took >= fetchWait {
					return fmt.Errorf("read of lost %s took %v, a fetch timeout", p, took)
				}
				continue
			}
			if err != nil || !bytes.Equal(got, want[p]) {
				return fmt.Errorf("read of surviving %s: %v (content matches: %v)", p, err, bytes.Equal(got, want[p]))
			}
		}
		if lost == 0 {
			return fmt.Errorf("no file of the dead ranks found")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestECHolderDeathRestoresEveryShard: a member that owns nothing but
// holds shards dies. Once the death settles, every partition — each has
// a live owner — has all k+m shard indices on live nodes again: each
// owner whose stripes named the dead node replaced exactly its shards.
func TestECHolderDeathRestoresEveryShard(t *testing.T) {
	const world, victimRank = 4, 3
	bundle, want := buildBundle(t, dataset.ImageNet, 12, 6, 2<<10, nil)
	for _, red := range []Redundancy{{K: 2, M: 1}, {K: 1, M: 1}} {
		t.Run(red.String(), func(t *testing.T) {
			nodes := make([]*Node, world)
			err := mpi.Run(world, func(c *mpi.Comm) error {
				var parts [][]byte
				if c.Rank() != victimRank {
					parts = [][]byte{bundle.Scatter[2*c.Rank()], bundle.Scatter[2*c.Rank()+1]}
				}
				opts := ElasticOptions{Options: Options{CacheBytes: 1 << 20, FetchTimeout: 200 * time.Millisecond, Redundancy: red}}
				node, err := MountElastic(c, parts, opts)
				if err != nil {
					return err
				}
				nodes[c.Rank()] = node
				if err := c.Barrier(); err != nil {
					return err
				}
				if c.Rank() == victimRank {
					node.FailStop()
					if err := c.Send(0, tagTestKilled, idBytes(node.ID())); err != nil {
						return err
					}
					_, _, err := c.Recv(0, tagTestRelease)
					return err
				}
				defer node.Close()
				if c.Rank() != 0 {
					_, _, err := c.Recv(0, tagTestFreeze)
					return err
				}
				data, _, err := c.Recv(victimRank, tagTestKilled)
				if err != nil {
					return err
				}
				if err := node.MarkDead(idOf(data)); err != nil {
					return err
				}
				live := nodes[:victimRank]
				full := func() bool {
					for _, have := range shardCensus(live) {
						if have != red.K+red.M {
							return false
						}
					}
					return true
				}
				err = awaitCond("every stripe whole on the live nodes", func() bool { return node.ectrl.idle() && full() })
				for r := 1; r < world; r++ {
					tag := tagTestFreeze
					if r == victimRank {
						tag = tagTestRelease
					}
					_ = c.Send(r, tag, nil)
				}
				if err != nil {
					return fmt.Errorf("%w: shard indices on live nodes by partition: %v", err, shardCensus(live))
				}
				return readAll(node, want)
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// shardCensus counts, for each partition a node of live owns, the
// distinct shard indices the nodes of live hold.
func shardCensus(live []*Node) map[uint64]int {
	idx := make(map[uint64]map[uint8]bool)
	for _, n := range live {
		n.mu.RLock()
		for gid := range n.parts {
			idx[gid] = make(map[uint8]bool)
		}
		n.mu.RUnlock()
	}
	for _, n := range live {
		n.ec.mu.Lock()
		for gid, set := range n.ec.held {
			for i := range set {
				if have := idx[gid]; have != nil {
					have[i] = true
				}
			}
		}
		n.ec.mu.Unlock()
	}
	out := make(map[uint64]int, len(idx))
	for gid, have := range idx {
		out[gid] = len(have)
	}
	return out
}

// ownerOf is the owner n's record of path names.
func ownerOf(n *Node, path string) member.NodeID {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return member.NodeID(n.objs[n.names[path]].meta.Owner)
}

// TestLeaveWithDeadDestinationFailsLoudly is the fault-path regression
// for the rebalance registry: a leave whose planned destination has
// silently crashed must not park the partition in the registry forever.
// The pull watchdog fails the stalled transfer, the coordinator re-plans
// up to the attempt cap, and then the job fails loudly: the leaver gets
// a prompt drain-refused error (it still owns data) instead of hanging,
// rebalance.jobs.failed counts the job, and the pending gauge returns
// to zero. Run with -race.
func TestLeaveWithDeadDestinationFailsLoudly(t *testing.T) {
	const (
		world    = 3
		nParts   = 6
		nFiles   = 18
		fileSize = 4 << 10
	)
	bundle, want := buildBundle(t, dataset.Language, nFiles, nParts, fileSize, nil)
	err := mpi.Run(world, func(c *mpi.Comm) error {
		var total int64
		for _, blob := range bundle.Scatter {
			total += int64(len(blob))
		}
		opts := ElasticOptions{
			Options: Options{
				CacheBytes:   1 << 20,
				FetchTimeout: 150 * time.Millisecond,
			},
			InitialMembers: world,
			// Half the dataset per node: the survivor that already owns a
			// third cannot absorb both of the leaver's partitions, so the
			// plan must route one of them at the (dead) third node.
			NodeCapacity: total/2 + int64(fileSize),
			PullTimeout:  400 * time.Millisecond,
		}
		parts := [][]byte{bundle.Scatter[2*c.Rank()], bundle.Scatter[2*c.Rank()+1]}
		node, err := MountElastic(c, parts, opts)
		if err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}

		switch c.Rank() {
		case 2:
			// Crash without a word; the cluster still believes this node
			// is alive when the leave below plans transfers onto it.
			id := node.ID()
			node.FailStop()
			var frame [5]byte
			binary.LittleEndian.PutUint32(frame[1:], uint32(id))
			if err := c.Send(1, tagTestKilled, frame[:]); err != nil {
				return err
			}
			_, _, err := c.Recv(0, tagTestRelease)
			return err

		case 1:
			data, _, err := c.Recv(2, tagTestKilled)
			if err != nil {
				return err
			}
			deadID := member.NodeID(int32(binary.LittleEndian.Uint32(data[1:])))
			start := time.Now()
			leaveErr := node.LeaveCluster()
			elapsed := time.Since(start)
			if leaveErr == nil {
				return fmt.Errorf("leave with a dead destination succeeded")
			}
			if elapsed > 10*time.Second {
				return fmt.Errorf("leave took %v to fail; the dead destination parked it", elapsed)
			}
			// The refused leaver is still a serving member: its remaining
			// paths read fine (skip the dead node's paths — under
			// redundancy none their only copy died with it).
			node.mu.RLock()
			var readable []string
			for p, m := range node.recordsLocked() {
				if member.NodeID(m.Owner) != deadID {
					readable = append(readable, p)
				}
			}
			node.mu.RUnlock()
			if len(readable) == 0 {
				return fmt.Errorf("no readable paths after the failed leave")
			}
			for _, p := range readable {
				got, err := node.ReadFile(p)
				if err != nil {
					return fmt.Errorf("post-leave-failure read %s: %w", p, err)
				}
				if !bytes.Equal(got, want[p]) {
					return fmt.Errorf("post-leave-failure read %s: content mismatch", p)
				}
			}
			// Tell the coordinator to verify its side and finish the run.
			if err := c.Send(0, tagTestApplied, data); err != nil {
				return err
			}
			if _, _, err := c.Recv(0, tagTestFreeze); err != nil {
				return err
			}
			return node.Close()

		default: // coordinator
			defer func() {
				_ = c.Send(2, tagTestRelease, nil)
			}()
			data, _, err := c.Recv(1, tagTestApplied)
			if err != nil {
				return err
			}
			deadID := member.NodeID(int32(binary.LittleEndian.Uint32(data[1:])))
			if got := node.ectrl.jobsFailed.Value(); got < 1 {
				return fmt.Errorf("rebalance.jobs.failed = %d after the doomed leave, want >= 1", got)
			}
			if got := node.RebalancePending(); got != 0 {
				return fmt.Errorf("rebalance.partitions.pending = %d after the failed job, want 0", got)
			}
			// Only now does failure detection land: the corpse leaves the
			// map so the shutdown handshake counts members that can answer.
			// Its partitions had no other copy: the repair job plans no pull
			// of them and fails nothing, and their reads return ErrLost.
			if err := node.MarkDead(deadID); err != nil {
				return err
			}
			if err := awaitCond("the repair job to settle", node.ectrl.idle); err != nil {
				return err
			}
			if got := node.ectrl.jobsFailed.Value(); got != 1 {
				return fmt.Errorf("rebalance.jobs.failed = %d after the death, want the leave's 1", got)
			}
			if ownedBy(node, deadID) == 0 {
				return fmt.Errorf("the dead node owns no records")
			}
			for p := range want {
				if ownerOf(node, p) != deadID {
					continue
				}
				if _, err := node.ReadFile(p); !errors.Is(err, ErrLost) {
					return fmt.Errorf("read of the dead node's %s = %v, want ErrLost", p, err)
				}
			}
			if err := c.Send(1, tagTestFreeze, nil); err != nil {
				return err
			}
			return node.Close()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestChaosECRepairEvent pins the ec-repair event: after a rank of an
// ec(2,1) cluster is killed and marked dead, a node reports exactly one
// ec-repair event per commit, if and only if that commit made it push
// shards. A member pushes at the death commit when one of its stripes
// named the victim (it replaces that shard), and at the repair commit
// when it took over a victim's partition (it places every shard); the
// coordinator applies the death with the repair commit, so both land
// there. The mount's initial placement reports none.
func TestChaosECRepairEvent(t *testing.T) {
	const (
		world      = 4
		victimRank = 2
	)
	bundle, _ := buildBundle(t, dataset.ImageNet, 16, 2*world, 2<<10, nil)
	// repairVersions lists the map version of each ec-repair event, in
	// version order (the pushes of two commits run concurrently).
	repairVersions := func(n *Node) []uint64 {
		var vs []uint64
		for _, ev := range n.Events().Events() {
			if ev.Kind == obs.EvECRepair {
				var v uint64
				_, _ = fmt.Sscanf(ev.Msg[strings.LastIndex(ev.Msg, "map v"):], "map v%d", &v)
				vs = append(vs, v)
			}
		}
		slices.Sort(vs)
		return vs
	}
	err := mpi.Run(world, func(c *mpi.Comm) error {
		opts := ElasticOptions{
			Options: Options{
				CacheBytes:   1 << 20,
				FetchTimeout: 200 * time.Millisecond,
				Redundancy:   Redundancy{K: 2, M: 1},
				Events:       obs.NewEventLog(c.Rank(), 0),
			},
			PullTimeout: 2 * time.Second,
		}
		node, err := MountElastic(c, [][]byte{bundle.Scatter[2*c.Rank()], bundle.Scatter[2*c.Rank()+1]}, opts)
		if err != nil {
			return err
		}
		// Nobody may die until every member's shard pushes have landed.
		if err := c.Barrier(); err != nil {
			return err
		}
		if got := repairVersions(node); len(got) != 0 {
			return fmt.Errorf("rank %d: the initial placement reported ec-repair events under maps %v", c.Rank(), got)
		}
		victim := nodeAt(node.View().Map(), victimRank)
		if c.Rank() == victimRank {
			node.FailStop()
			if err := c.Send(0, tagTestKilled, nil); err != nil {
				return err
			}
			_, _, err := c.Recv(0, tagTestRelease)
			return err
		}
		defer node.Close()
		// Which of this node's stripes name the victim as a holder.
		named := 0
		node.ec.mu.Lock()
		for _, holders := range node.ec.placed {
			if slices.Contains(holders, victim) {
				named++
			}
		}
		node.ec.mu.Unlock()

		survivors := []int{1, 3}
		if c.Rank() == 0 {
			if _, _, err := c.Recv(victimRank, tagTestKilled); err != nil {
				return err
			}
			if err := node.MarkDead(victim); err != nil {
				return err
			}
			for _, r := range survivors {
				if err := c.Send(r, tagTestRepaired, nil); err != nil {
					return err
				}
			}
		} else if _, _, err := c.Recv(0, tagTestRepaired); err != nil {
			return err
		}
		if err := awaitCond("the repair commit", func() bool { return ownedBy(node, victim) == 0 }); err != nil {
			return fmt.Errorf("rank %d: %w", c.Rank(), err)
		}

		// A gid carries the node that mounted the partition: what this
		// node holds of the victim's, the commit just made it the owner of.
		tookOver := 0
		node.mu.RLock()
		for gid := range node.parts {
			if member.NodeID(gid>>32)-1 == victim {
				tookOver++
			}
		}
		node.mu.RUnlock()
		// The death is one commit before the repair's.
		repair := node.MapVersion()
		var want []uint64
		switch {
		case c.Rank() == 0 && (named > 0 || tookOver > 0):
			want = append(want, repair)
		case c.Rank() != 0:
			if named > 0 {
				want = append(want, repair-1)
			}
			if tookOver > 0 {
				want = append(want, repair)
			}
		}
		// The pushes run behind the commits and report when they are done.
		if err := awaitCond("the ec-repair events", func() bool { return len(repairVersions(node)) >= len(want) }); err != nil {
			return fmt.Errorf("rank %d took over %d partitions, %d stripes named the victim: %w", c.Rank(), tookOver, named, err)
		}
		if got := repairVersions(node); !slices.Equal(got, want) {
			return fmt.Errorf("rank %d took over %d partitions, %d stripes named the victim: ec-repair events under maps %v, want %v",
				c.Rank(), tookOver, named, got, want)
		}

		// The coordinator checks the victim's partitions all found an owner.
		frame := binary.LittleEndian.AppendUint32(nil, uint32(tookOver))
		if c.Rank() != 0 {
			return c.Send(0, tagTestApplied, frame)
		}
		for range survivors {
			data, _, err := c.Recv(mpi.AnySource, tagTestApplied)
			if err != nil {
				return err
			}
			tookOver += int(binary.LittleEndian.Uint32(data))
		}
		if tookOver != 2 {
			return fmt.Errorf("survivors took over %d of the victim's 2 partitions", tookOver)
		}
		return c.Send(victimRank, tagTestRelease, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
}
