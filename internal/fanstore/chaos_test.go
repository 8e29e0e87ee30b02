package fanstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fanstore/internal/dataset"
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

// TestECKillRankDegradedReadsAndRepair is the erasure-coding acceptance
// test: an ec(2,1) cluster loses a rank without warning mid-workload.
// Every read issued by the survivors must keep succeeding — first
// degraded (reconstructed from surviving shards), then, once the
// coordinator's repair job re-homes the dead rank's partitions, via the
// new owners — and after the repair commit lands everywhere, reads must
// stop counting as degraded. Run with -race.
func TestECKillRankDegradedReadsAndRepair(t *testing.T) {
	const (
		world      = 4
		nParts     = 8
		nFiles     = 24
		fileSize   = 4 << 10
		victimRank = 2
	)
	bundle, want := buildBundle(t, dataset.ImageNet, nFiles, nParts, fileSize, nil)
	paths := make([]string, 0, len(want))
	for p := range want {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	err := mpi.Run(world, func(c *mpi.Comm) (rerr error) {
		red, err := ParseRedundancy("ec(2,1)")
		if err != nil {
			return err
		}
		opts := ElasticOptions{
			Options: Options{
				// Immediate keeps every read on the fetch path (no warm
				// cache masking the dead rank), and the timeout is what
				// turns a call to the corpse into an EC fallback.
				CacheBytes:   1 << 20,
				CachePolicy:  Immediate,
				FetchTimeout: 200 * time.Millisecond,
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

		// Continuous read workload across the crash and repair.
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
						readerErr = fmt.Errorf("rank %d mid-crash read %s: %w", c.Rank(), p, err)
						return
					}
					if !bytes.Equal(got, want[p]) {
						readerErr = fmt.Errorf("rank %d mid-crash read %s: content mismatch", c.Rank(), p)
						return
					}
					reads.Add(1)
				}
			}
		}()

		var victimID member.NodeID
		if c.Rank() == 0 {
			data, _, err := c.Recv(victimRank, tagTestKilled)
			if err != nil {
				return err
			}
			victimID = member.NodeID(int32(binary.LittleEndian.Uint32(data[1:])))
			// Hold the un-repaired state long enough that every survivor's
			// reader demonstrably serves reads degraded before the repair
			// even starts.
			time.Sleep(300 * time.Millisecond)
			if err := node.MarkDead(victimID); err != nil {
				return fmt.Errorf("MarkDead: %w", err)
			}
			// Converge: repair queue drained, every record re-homed.
			deadline := time.Now().Add(15 * time.Second)
			for {
				orphans := 0
				node.mu.RLock()
				for _, m := range node.recordsLocked() {
					if member.NodeID(m.Owner) == victimID {
						orphans++
					}
				}
				node.mu.RUnlock()
				if orphans == 0 && node.RebalancePending() == 0 {
					break
				}
				if time.Now().After(deadline) {
					return fmt.Errorf("repair did not converge: %d orphaned records, %d pending",
						orphans, node.RebalancePending())
				}
				time.Sleep(10 * time.Millisecond)
			}
			var vf [5]byte
			binary.LittleEndian.PutUint32(vf[1:], uint32(victimID))
			for _, r := range []int{1, 3} {
				if err := c.Send(r, tagTestRepaired, vf[:]); err != nil {
					return err
				}
			}
		} else {
			data, _, err := c.Recv(0, tagTestRepaired)
			if err != nil {
				return err
			}
			victimID = member.NodeID(int32(binary.LittleEndian.Uint32(data[1:])))
		}

		// Survivors besides the coordinator: wait for the commit broadcast
		// to land locally before reporting in.
		if c.Rank() != 0 {
			deadline := time.Now().Add(5 * time.Second)
			for {
				orphans := 0
				node.mu.RLock()
				for _, m := range node.recordsLocked() {
					if member.NodeID(m.Owner) == victimID {
						orphans++
					}
				}
				node.mu.RUnlock()
				if orphans == 0 {
					break
				}
				if time.Now().After(deadline) {
					return fmt.Errorf("rank %d: commit never applied locally", c.Rank())
				}
				time.Sleep(5 * time.Millisecond)
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
		degraded := node.ec.degradedReads.Value()
		if degraded == 0 {
			return fmt.Errorf("rank %d survived the crash without a single degraded read", c.Rank())
		}

		// Report in / fan out the freeze check so no member starts it
		// before every member has applied the commit.
		var frame [9]byte
		binary.LittleEndian.PutUint64(frame[1:], uint64(node.ec.repairBytes.Value()))
		if c.Rank() == 0 {
			var repaired int64 = node.ec.repairBytes.Value()
			for i := 0; i < 2; i++ {
				data, _, err := c.Recv(mpi.AnySource, tagTestApplied)
				if err != nil {
					return err
				}
				repaired += int64(binary.LittleEndian.Uint64(data[1:]))
			}
			if repaired == 0 {
				return fmt.Errorf("repair moved zero bytes across the cluster")
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
		// to the new owners and must not count as degraded anymore.
		before := node.ec.degradedReads.Value()
		for _, p := range paths {
			got, err := node.ReadFile(p)
			if err != nil {
				return fmt.Errorf("rank %d post-repair read %s: %w", c.Rank(), p, err)
			}
			if !bytes.Equal(got, want[p]) {
				return fmt.Errorf("rank %d post-repair read %s: content mismatch", c.Rank(), p)
			}
		}
		if after := node.ec.degradedReads.Value(); after != before {
			return fmt.Errorf("rank %d: %d post-repair reads still degraded", c.Rank(), after-before)
		}

		if c.Rank() == 0 {
			return c.Send(victimRank, tagTestRelease, nil)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
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
			// paths read fine (skip the dead node's paths — in replicate
			// mode without replicas their only copy died with it).
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
			if err := node.MarkDead(deadID); err != nil {
				return err
			}
			deadline := time.Now().Add(10 * time.Second)
			for node.RebalancePending() != 0 || node.ectrl.jobsFailed.Value() < 2 {
				if time.Now().After(deadline) {
					return fmt.Errorf("repair job after MarkDead never settled (pending %d, failed %d)",
						node.RebalancePending(), node.ectrl.jobsFailed.Value())
				}
				time.Sleep(5 * time.Millisecond)
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
// ec(2,1) cluster is killed and marked dead, every node the repair commit
// made an owner re-encodes and re-scatters the shards of what it took
// over and reports that batch with exactly one ec-repair event; nodes
// that took nothing over, and the mount's initial placement, report none.
func TestChaosECRepairEvent(t *testing.T) {
	const (
		world      = 4
		victimRank = 2
	)
	bundle, _ := buildBundle(t, dataset.ImageNet, 16, 2*world, 2<<10, nil)
	repairEvents := func(n *Node) int {
		count := 0
		for _, ev := range n.Events().Events() {
			if ev.Kind == obs.EvECRepair {
				count++
			}
		}
		return count
	}
	err := mpi.Run(world, func(c *mpi.Comm) error {
		opts := ElasticOptions{
			Options: Options{
				CacheBytes:   1 << 20,
				FetchTimeout: 200 * time.Millisecond,
				Redundancy:   Redundancy{Mode: RedundancyEC, K: 2, M: 1},
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
		if got := repairEvents(node); got != 0 {
			return fmt.Errorf("rank %d: the initial placement reported %d ec-repair events", c.Rank(), got)
		}
		var frame [4]byte
		if c.Rank() == victimRank {
			binary.LittleEndian.PutUint32(frame[:], uint32(node.ID()))
			node.FailStop()
			if err := c.Send(0, tagTestKilled, frame[:]); err != nil {
				return err
			}
			_, _, err := c.Recv(0, tagTestRelease)
			return err
		}
		defer node.Close()

		survivors := []int{1, 3}
		if c.Rank() == 0 {
			data, _, err := c.Recv(victimRank, tagTestKilled)
			if err != nil {
				return err
			}
			if err := node.MarkDead(member.NodeID(int32(binary.LittleEndian.Uint32(data)))); err != nil {
				return err
			}
			for _, r := range survivors {
				if err := c.Send(r, tagTestRepaired, data); err != nil {
					return err
				}
			}
			copy(frame[:], data)
		} else {
			data, _, err := c.Recv(0, tagTestRepaired)
			if err != nil {
				return err
			}
			copy(frame[:], data)
		}
		victim := member.NodeID(int32(binary.LittleEndian.Uint32(frame[:])))
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
		wantEvents := min(tookOver, 1)
		if wantEvents == 1 {
			// The re-push runs behind the commit and reports when it is done.
			if err := awaitCond("the ec-repair event", func() bool { return repairEvents(node) >= 1 }); err != nil {
				return fmt.Errorf("rank %d took over %d partitions: %w", c.Rank(), tookOver, err)
			}
		}
		if got := repairEvents(node); got != wantEvents {
			return fmt.Errorf("rank %d took over %d partitions and reported %d ec-repair events, want %d",
				c.Rank(), tookOver, got, wantEvents)
		}

		// The coordinator checks the victim's partitions all found an owner.
		binary.LittleEndian.PutUint32(frame[:], uint32(tookOver))
		if c.Rank() != 0 {
			return c.Send(0, tagTestApplied, frame[:])
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
