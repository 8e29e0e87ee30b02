package fanstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fanstore/internal/dataset"
	"fanstore/internal/member"
	"fanstore/internal/mpi"
	"fanstore/internal/pack"
)

// countingBackend counts how often the node closed the backend it was
// given: every exit, a failed mount included, owes exactly one Close.
type countingBackend struct {
	Backend
	closes atomic.Int32
}

func (b *countingBackend) Close() error {
	b.closes.Add(1)
	return b.Backend.Close()
}

// exited is what one rank leaves behind once its node is gone, by any
// exit: the input of the quiesce check.
type exited struct {
	comm *mpi.Comm
	// node is the mounted node after its exit; nil when every mount on
	// this rank failed.
	node *Node
	// backends holds one counter per mount attempt.
	backends []*countingBackend
	// survivor marks a rank that ran its exit to the end in a world
	// that stayed up: its mailbox must be empty. A killed rank, a rank of
	// an aborted world and a rank whose whole cluster failed to mount
	// may hold frames nobody was left to receive.
	survivor bool
}

// options returns the mount options of this rank's next attempt, with a
// fresh counting backend.
func (x *exited) options() Options {
	b := &countingBackend{Backend: NewRAMBackend()}
	x.backends = append(x.backends, b)
	return Options{CacheBytes: 1 << 20, Backend: b, FetchTimeout: 2 * time.Second}
}

// quiesce checks the resource invariants a rank must hold after its node
// exited (ROADMAP item 1): the backend closed exactly once per mount, no
// flight or cache pin outstanding, the namespace unmounted, and nothing
// left queued in a survivor's mailbox. Goroutines are process-wide and
// checked by awaitGoroutines once the world is down.
func quiesce(x *exited) error {
	rank := x.comm.Rank()
	for i, b := range x.backends {
		if got := b.closes.Load(); got != 1 {
			return fmt.Errorf("rank %d mount %d: backend closed %d times, want 1", rank, i, got)
		}
	}
	if n := x.node; n != nil {
		if got := n.flightCount(); got != 0 {
			return fmt.Errorf("rank %d: %d flights outstanding", rank, got)
		}
		if got := n.cache.pinned(); got != 0 {
			return fmt.Errorf("rank %d: %d cache pins outstanding", rank, got)
		}
		if _, err := n.Open("anything"); !errors.Is(err, ErrUnmounted) {
			return fmt.Errorf("rank %d: Open after exit = %v, want ErrUnmounted", rank, err)
		}
	}
	if x.survivor {
		if got := x.comm.Pending(); got != 0 {
			return fmt.Errorf("rank %d: %d messages left queued", rank, got)
		}
	}
	return nil
}

// awaitGoroutines waits for the process to return to the goroutine count
// it had before the world started.
func awaitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines left running, %d before the world started\n%s",
			n, baseline, buf[:runtime.Stack(buf, true)])
	}
}

// runLifecycle runs one row of the lifecycle table: rank drives one rank
// of a world through mount and exit, recording what it leaves in x, and
// the harness checks every rank at quiesce. aborts says the row ends the
// world by returning an error from some rank.
func runLifecycle(t *testing.T, world int, aborts bool, rank func(c *mpi.Comm, x *exited) error) {
	t.Helper()
	baseline := runtime.NumGoroutine()
	xs := make([]exited, world)
	err := mpi.Run(world, func(c *mpi.Comm) error {
		xs[c.Rank()].comm = c
		return rank(c, &xs[c.Rank()])
	})
	if (err != nil) != aborts {
		t.Fatalf("world ended with %v (row aborts the world: %v)", err, aborts)
	}
	for i := range xs {
		if aborts {
			xs[i].survivor = false
		}
		if err := quiesce(&xs[i]); err != nil {
			t.Error(err)
		}
	}
	awaitGoroutines(t, baseline)
}

// readAll reads the node's whole namespace back and compares.
func readAll(n *Node, want map[string][]byte) error { return readLive(n, want, member.NoNode) }

// readLive is readAll over the files not owned by the dead node.
func readLive(n *Node, want map[string][]byte, dead member.NodeID) error {
	n.mu.RLock()
	paths := make([]string, 0, len(n.meta))
	for p, m := range n.meta {
		if member.NodeID(m.Owner) != dead {
			paths = append(paths, p)
		}
	}
	n.mu.RUnlock()
	if len(paths) == 0 {
		return fmt.Errorf("rank %d: empty namespace", n.Rank())
	}
	for _, p := range paths {
		got, err := n.ReadFile(p)
		if err != nil {
			return fmt.Errorf("rank %d: %s: %w", n.Rank(), p, err)
		}
		if !bytes.Equal(got, want[p]) {
			return fmt.Errorf("rank %d: %s: content mismatch", n.Rank(), p)
		}
	}
	return nil
}

// awaitCond polls cond until it holds or five seconds pass.
func awaitCond(what string, cond func() bool) error {
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// ownedBy counts the records naming id as their owner.
func ownedBy(n *Node, id member.NodeID) int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	owned := 0
	for _, m := range n.meta {
		if member.NodeID(m.Owner) == id {
			owned++
		}
	}
	return owned
}

var errInjected = errors.New("injected: this rank aborts the world")

// The overlap rows' dataset, built once a process: `make ci` runs those
// rows -count 20 under the race detector, where compressing it costs
// three times what the two rows do.
var (
	wideOnce sync.Once
	wide     *pack.Bundle
	wantWide map[string][]byte
)

// garbageTable is a ctrlTable frame whose metadata cannot be decoded.
var garbageTable = []byte{ctrlTable, 0xff, 0xff, 0xff, 0xff, 1, 2, 3}

// TestNodeLifecycle is the lifecycle table: node kinds {static, elastic
// coordinator, elastic member, joiner} × exits {Close, LeaveCluster,
// FailStop, failed mount}, the mount failures injected at each stage a
// mount can die. Every row ends in the same quiesce check.
func TestNodeLifecycle(t *testing.T) {
	bundle, want := buildBundle(t, dataset.ImageNet, 12, 6, 2<<10, nil)
	parts := func(rank int) [][]byte { return [][]byte{bundle.Scatter[2*rank], bundle.Scatter[2*rank+1]} }
	garbage := [][]byte{[]byte("not a partition")}
	badEC := Redundancy{Mode: RedundancyEC}

	// ---- exits of a mounted node ----

	for _, exit := range []string{"Close", "FailStop"} {
		t.Run("static/"+exit, func(t *testing.T) {
			runLifecycle(t, 3, false, func(c *mpi.Comm, x *exited) error {
				node, err := Mount(c, parts(c.Rank()), nil, x.options())
				if err != nil {
					return err
				}
				x.node = node
				if err := readAll(node, want); err != nil {
					return err
				}
				if exit == "Close" {
					x.survivor = true
					return node.Close()
				}
				// Nobody may die while a peer still reads from it.
				if err := c.Barrier(); err != nil {
					return err
				}
				node.FailStop()
				return nil
			})
		})
	}

	// Rank 2 enters as an initial member or as a joiner and takes the
	// exit under test; ranks 0 (coordinator) and 1 outlive it and Close.
	for _, kind := range []string{"member", "joiner"} {
		for _, exit := range []string{"Close", "LeaveCluster", "FailStop"} {
			t.Run(kind+"/"+exit, func(t *testing.T) {
				runLifecycle(t, 3, false, func(c *mpi.Comm, x *exited) error {
					return elasticExit(c, x, kind == "joiner", exit, parts, want)
				})
			})
		}
	}

	t.Run("coordinator/FailStop", func(t *testing.T) {
		runLifecycle(t, 3, false, func(c *mpi.Comm, x *exited) error {
			node, err := MountElastic(c, parts(c.Rank()), ElasticOptions{Options: x.options()})
			if err != nil {
				return err
			}
			x.node = node
			if err := readAll(node, want); err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			node.FailStop()
			return nil
		})
	})

	// ---- failed mounts ----

	// mustFail runs five mounts that must each fail on this rank alone.
	mustFail := func(x *exited, mount func(Options) (*Node, error)) error {
		for i := 0; i < 5; i++ {
			if node, err := mount(x.options()); err == nil {
				x.node = node
				return fmt.Errorf("mount %d succeeded", i)
			}
		}
		x.survivor = true
		return nil
	}
	withEC := func(o Options, r Redundancy) Options { o.Redundancy = r; return o }

	t.Run("static/load", func(t *testing.T) {
		runLifecycle(t, 2, false, func(c *mpi.Comm, x *exited) error {
			return mustFail(x, func(o Options) (*Node, error) { return Mount(c, garbage, nil, o) })
		})
	})
	t.Run("static/ec", func(t *testing.T) {
		runLifecycle(t, 1, false, func(c *mpi.Comm, x *exited) error {
			ec21 := Redundancy{Mode: RedundancyEC, K: 2, M: 1}
			return mustFail(x, func(o Options) (*Node, error) { return Mount(c, parts(0), nil, withEC(o, ec21)) })
		})
	})
	t.Run("static/allgather", func(t *testing.T) {
		runLifecycle(t, 2, true, func(c *mpi.Comm, x *exited) error {
			if c.Rank() == 1 {
				return errInjected
			}
			if _, err := Mount(c, parts(0), nil, x.options()); err == nil {
				return fmt.Errorf("mount survived its peer's abort")
			}
			return nil
		})
	})
	t.Run("coordinator/load", func(t *testing.T) {
		runLifecycle(t, 1, false, func(c *mpi.Comm, x *exited) error {
			return mustFail(x, func(o Options) (*Node, error) {
				return MountElastic(c, garbage, ElasticOptions{Options: o})
			})
		})
	})
	t.Run("coordinator/ec", func(t *testing.T) {
		runLifecycle(t, 1, false, func(c *mpi.Comm, x *exited) error {
			return mustFail(x, func(o Options) (*Node, error) {
				return MountElastic(c, parts(0), ElasticOptions{Options: withEC(o, badEC)})
			})
		})
	})
	t.Run("coordinator/gather", func(t *testing.T) {
		runLifecycle(t, 2, true, func(c *mpi.Comm, x *exited) error {
			if c.Rank() == 1 {
				return errInjected
			}
			if _, err := MountElastic(c, parts(0), ElasticOptions{Options: x.options()}); err == nil {
				return fmt.Errorf("mount survived its peer's abort")
			}
			return nil
		})
	})
	t.Run("coordinator/register", func(t *testing.T) {
		runLifecycle(t, 2, false, func(c *mpi.Comm, x *exited) error {
			if c.Rank() == 1 {
				// A member that registers with a frame its count outruns.
				if _, err := handRolledHello(c); err != nil {
					return err
				}
				return c.Send(0, tagCtrl, []byte{ctrlRegister, 1, 0, 0, 0, 3, 0, 0, 0})
			}
			x.survivor = true
			if _, err := MountElastic(c, parts(0), ElasticOptions{Options: x.options()}); err == nil {
				return fmt.Errorf("mount accepted a garbage registration")
			}
			return nil
		})
	})
	t.Run("member/load", func(t *testing.T) {
		runLifecycle(t, 2, true, func(c *mpi.Comm, x *exited) error {
			p := parts(c.Rank())
			if c.Rank() == 1 {
				p = garbage
			}
			// The member fails alone and takes the world down with it; the
			// coordinator fails on the abort, mid-gather.
			_, err := MountElastic(c, p, ElasticOptions{Options: x.options()})
			if err == nil {
				return fmt.Errorf("mount succeeded")
			}
			if c.Rank() == 1 {
				return errInjected
			}
			return nil
		})
	})
	// A hand-rolled coordinator takes the member's registration and then
	// aborts the world, or answers with a table that does not decode.
	for _, reply := range []string{"abort", "garbage"} {
		t.Run("member/table-"+reply, func(t *testing.T) {
			runLifecycle(t, 2, reply == "abort", func(c *mpi.Comm, x *exited) error {
				if c.Rank() == 0 {
					if _, _, err := c.Recv(1, tagCtrl); err != nil { // the hello
						return err
					}
					if reply == "abort" {
						return errInjected
					}
					if err := c.Send(1, tagCtrl, garbageTable); err != nil {
						return err
					}
					_, _, err := c.Recv(1, tagTestApplied)
					return err
				}
				x.survivor = true
				if _, err := MountElastic(c, parts(1), ElasticOptions{Options: x.options()}); err == nil {
					return fmt.Errorf("mount succeeded")
				}
				if reply == "abort" {
					return nil
				}
				return c.Send(0, tagTestApplied, nil)
			})
		})
	}
	// The shard push of an ec mount reaches a member that registered and
	// then stopped answering: the mount fails with its server, write-meta
	// loop and ctrl loop all running.
	t.Run("member/ec-push", func(t *testing.T) {
		runLifecycle(t, 3, false, func(c *mpi.Comm, x *exited) error {
			if c.Rank() == 2 {
				id, err := handRolledHello(c)
				if err != nil {
					return err
				}
				if err := c.Send(0, tagCtrl, encodeRegister(id, nil)); err != nil {
					return err
				}
				for i := 0; i < 3; i++ { // the table, then both mounts' verdicts
					tag := tagTestApplied
					if i == 0 {
						tag = tagCtrl
					}
					if _, _, err := c.Recv(mpi.AnySource, tag); err != nil {
						return err
					}
				}
				return nil
			}
			o := withEC(x.options(), Redundancy{Mode: RedundancyEC, K: 2, M: 1})
			o.FetchTimeout = 300 * time.Millisecond
			if _, err := MountElastic(c, parts(c.Rank())[:1], ElasticOptions{Options: o}); err == nil {
				return fmt.Errorf("mount placed shards on a dead member")
			}
			return c.Send(2, tagTestApplied, nil)
		})
	})

	// A join that fails after admission — on the table it is sent, or
	// inside newNode — must not stay in the coordinator's map.
	for _, stage := range []string{"table", "ec"} {
		t.Run("joiner/"+stage, func(t *testing.T) {
			runLifecycle(t, 3, false, func(c *mpi.Comm, x *exited) error {
				opts := ElasticOptions{Options: x.options(), InitialMembers: 2, PullTimeout: 200 * time.Millisecond}
				if c.Rank() == 2 {
					for i := 0; i < 2; i++ {
						if _, _, err := c.Recv(mpi.AnySource, tagTestReady); err != nil {
							return err
						}
					}
					if stage == "ec" {
						opts.Redundancy = badEC
					}
					if _, err := JoinCluster(c, 0, opts); err == nil {
						return fmt.Errorf("join succeeded")
					}
					return c.Send(0, tagTestJoined, nil)
				}
				x.survivor = true
				node, err := MountElastic(c, parts(c.Rank()), opts)
				if err != nil {
					return err
				}
				x.node = node
				if c.Rank() == 0 && stage == "table" {
					// Queued ahead of the real table the join will be sent.
					if err := c.Send(2, tagCtrl, garbageTable); err != nil {
						return err
					}
				}
				if err := c.Send(2, tagTestReady, nil); err != nil {
					return err
				}
				if c.Rank() == 0 {
					if _, _, err := c.Recv(2, tagTestJoined); err != nil {
						return err
					}
					err := awaitCond("the failed joiner to leave the map and its rebalance to settle", func() bool {
						return len(node.View().Map().Alive()) == 2 && node.RebalancePending() == 0 &&
							node.ectrl.idle()
					})
					if err != nil {
						return fmt.Errorf("%w (alive: %v)", err, node.View().Map().Alive())
					}
					if err := c.Send(1, tagTestFreeze, nil); err != nil {
						return err
					}
				} else if _, _, err := c.Recv(0, tagTestFreeze); err != nil {
					return err
				}
				if err := readAll(node, want); err != nil {
					return err
				}
				return node.Close()
			})
		})
	}

	// ---- overlapping membership changes ----
	//
	// The schedules two control planes lost: joins released together, and a
	// leave racing a join. 24 partitions of two 64 KiB files, so a
	// rebalance is still pulling when the next request arrives.
	wideOnce.Do(func() { wide, wantWide = buildBundle(t, dataset.ImageNet, 48, 24, 64<<10, nil) })
	share := func(rank, members int) [][]byte {
		per := len(wide.Scatter) / members
		return wide.Scatter[rank*per : (rank+1)*per]
	}
	// joinOnceMounted joins as soon as every initial member has mounted,
	// tells the coordinator who it became, and settles with the rest once
	// the leaver, if the row has one, says who it was.
	joinOnceMounted := func(c *mpi.Comm, x *exited, opts ElasticOptions, leaver int) error {
		for i := 0; i < opts.InitialMembers; i++ {
			if _, _, err := c.Recv(mpi.AnySource, tagTestReady); err != nil {
				return err
			}
		}
		node, err := JoinCluster(c, 0, opts)
		if err != nil {
			return err
		}
		x.node = node
		observed := watchVersion(node)
		if err := c.Send(0, tagTestJoined, idBytes(node.ID())); err != nil {
			return err
		}
		gone := member.NoNode
		if leaver >= 0 {
			data, _, err := c.Recv(leaver, tagTestKilled)
			if err != nil {
				return err
			}
			gone = idOf(data)
		}
		if err := settle(c, node, observed, nil, gone, wantWide); err != nil {
			return err
		}
		return node.Close()
	}
	// joinersAreNew collects the joiners' identities on the coordinator:
	// distinct from each other and from every identity seen before.
	joinersAreNew := func(c *mpi.Comm, seen *member.ClusterMap, joiners ...int) error {
		ids := make(map[member.NodeID]int)
		for _, node := range seen.Nodes {
			ids[node.ID] = node.Rank
		}
		for _, r := range joiners {
			data, _, err := c.Recv(r, tagTestJoined)
			if err != nil {
				return err
			}
			id := idOf(data)
			if was, dup := ids[id]; dup || id == member.NoNode {
				return fmt.Errorf("rank %d joined as node %v, the identity of rank %d", r, id, was)
			}
			ids[id] = r
		}
		return nil
	}

	t.Run("joiner/concurrent", func(t *testing.T) {
		runLifecycle(t, 5, false, func(c *mpi.Comm, x *exited) error {
			x.survivor = true
			opts := ElasticOptions{Options: x.options(), InitialMembers: 2}
			if c.Rank() >= 2 {
				return joinOnceMounted(c, x, opts, -1)
			}
			node, err := MountElastic(c, share(c.Rank(), 2), opts)
			if err != nil {
				return err
			}
			x.node = node
			mounted, observed := node.View().Map(), watchVersion(node)
			for r := 2; r < 5; r++ {
				if err := c.Send(r, tagTestReady, nil); err != nil {
					return err
				}
			}
			if c.Rank() == 0 {
				if err := joinersAreNew(c, mounted, 2, 3, 4); err != nil {
					return err
				}
			}
			if err := settle(c, node, observed, []int{1, 2, 3, 4}, member.NoNode, wantWide); err != nil {
				return err
			}
			return node.Close()
		})
	})

	t.Run("joiner/during-leave", func(t *testing.T) {
		runLifecycle(t, 4, false, func(c *mpi.Comm, x *exited) error {
			x.survivor = true
			opts := ElasticOptions{Options: x.options(), InitialMembers: 3, PullTimeout: 2 * time.Second}
			if c.Rank() == 3 {
				return joinOnceMounted(c, x, opts, 2)
			}
			node, err := MountElastic(c, share(c.Rank(), 3), opts)
			if err != nil {
				return err
			}
			x.node = node
			mounted, observed := node.View().Map(), watchVersion(node)
			if err := c.Send(3, tagTestReady, nil); err != nil {
				return err
			}
			if c.Rank() == 2 {
				// The leaver goes straight after its mount, against the join
				// that mount released, and then tells everyone who it was.
				if err := node.LeaveCluster(); err != nil {
					return err
				}
				for _, r := range []int{0, 1, 3} {
					if err := c.Send(r, tagTestKilled, idBytes(node.ID())); err != nil {
						return err
					}
				}
				return observed()
			}
			data, _, err := c.Recv(2, tagTestKilled)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				if err := joinersAreNew(c, mounted, 3); err != nil {
					return err
				}
			}
			gone := idOf(data)
			if err := settle(c, node, observed, []int{1, 3}, gone, wantWide); err != nil {
				return err
			}
			return node.Close()
		})
	})

	// Frames no honest peer sends reach both kinds of loop from a member:
	// truncated requests, a death and a pill that are not the
	// coordinator's own, a commit and a bye ack that are not the
	// coordinator's. All are ignored: the leave behind them on the same
	// stream is served, and the map moves by that leave's commit alone.
	t.Run("member/malformed", func(t *testing.T) {
		runLifecycle(t, 3, false, func(c *mpi.Comm, x *exited) error {
			x.survivor = true
			node, err := MountElastic(c, parts(c.Rank()), ElasticOptions{Options: x.options()})
			if err != nil {
				return err
			}
			x.node = node
			mounted, observed := node.View().Map(), watchVersion(node)
			if c.Rank() != 2 {
				data, _, err := c.Recv(2, tagTestKilled)
				if err != nil {
					return err
				}
				gone := idOf(data)
				if err := settle(c, node, observed, []int{1}, gone, want); err != nil {
					return err
				}
				if got := node.MapVersion(); got != mounted.Version+1 {
					return fmt.Errorf("rank %d: map at v%d after one leave from v%d", c.Rank(), got, mounted.Version)
				}
				return node.Close()
			}
			forged := &member.ClusterMap{Version: 99, Nodes: []member.Node{{ID: node.ID(), Rank: 2, State: member.StateAlive}}}
			for _, f := range []struct {
				to    int
				frame []byte
			}{
				{0, []byte{ctrlJoin}}, {0, []byte{ctrlLeave, 1}}, {0, []byte{ctrlDead, 1, 0, 0}},
				{0, idFrame(ctrlDead, 1)}, {0, nil}, {0, []byte{0x7f, 1, 2, 3}},
				{1, encodeCommit(ctrlCommit, member.NoNode, forged, nil, nil)}, {1, []byte{ctrlByeAck}}, {1, nil},
				{1, []byte{ctrlDrained, 1}}, {1, idFrame(ctrlLeave, 1)},
			} {
				if err := c.Send(f.to, tagCtrl, f.frame); err != nil {
					return err
				}
			}
			if err := node.LeaveCluster(); err != nil {
				return err
			}
			for r := 0; r < 2; r++ {
				if err := c.Send(r, tagTestKilled, idBytes(node.ID())); err != nil {
					return err
				}
			}
			return observed()
		})
	})
}

// idBytes and idOf carry a node's identity between the ranks of a row.
func idBytes(id member.NodeID) []byte { return binary.LittleEndian.AppendUint32(nil, uint32(id)) }
func idOf(data []byte) member.NodeID  { return member.NodeID(int32(binary.LittleEndian.Uint32(data))) }

// watchVersion samples the map version the node routes on until the
// returned function is called, which reports a decrease: what a member
// observes only ever moves forward.
func watchVersion(node *Node) (stop func() error) {
	done, verdict := make(chan struct{}), make(chan error, 1)
	go func() {
		for last := uint64(0); ; time.Sleep(100 * time.Microsecond) {
			v := node.MapVersion()
			if v < last {
				verdict <- fmt.Errorf("rank %d: map version went from v%d back to v%d", node.Rank(), last, v)
				return
			}
			last = v
			select {
			case <-done:
				verdict <- nil
				return
			default:
			}
		}
	}()
	return func() error { close(done); return <-verdict }
}

// settle ends a row of membership changes on one surviving node, whose
// map versions observed has been watching since it mounted. The
// coordinator waits until no rebalance is active or queued and sends the
// others its final map; every node then converges on that map, under
// which every record must name an owner the node can route to (the
// departed node is gone from it) and every file must read back
// byte-exact.
func settle(c *mpi.Comm, node *Node, observed func() error, others []int, gone member.NodeID, want map[string][]byte) (err error) {
	defer func() {
		if werr := observed(); err == nil {
			err = werr
		}
	}()
	var final []byte
	if c.Rank() == 0 {
		if err := awaitCond("the coordinator to be idle", node.ectrl.idle); err != nil {
			return err
		}
		final = node.View().Map().Encode()
		for _, r := range others {
			if err := c.Send(r, tagTestFreeze, final); err != nil {
				return err
			}
		}
	} else if final, _, err = c.Recv(0, tagTestFreeze); err != nil {
		return err
	}
	err = awaitCond("the coordinator's final map", func() bool { return bytes.Equal(node.View().Map().Encode(), final) })
	if err != nil {
		return fmt.Errorf("rank %d: %w (at %+v)", c.Rank(), err, node.View().Map())
	}
	if _, ok := node.View().Map().Lookup(gone); ok {
		return fmt.Errorf("rank %d: the departed node %v is still on the map %+v", c.Rank(), gone, node.View().Map())
	}
	// The records of the last commit land right behind its map.
	stranded := func() (count int) {
		node.mu.RLock()
		defer node.mu.RUnlock()
		for _, m := range node.meta {
			if _, err := node.View().Resolve(member.NodeID(m.Owner)); err != nil {
				count++
			}
		}
		return count
	}
	if err := awaitCond("every record to name an owner on the map", func() bool { return stranded() == 0 }); err != nil {
		return fmt.Errorf("rank %d: %d of %d records name an owner outside the map (%d the departed node %v); alive=%v",
			c.Rank(), stranded(), len(want), ownedBy(node, gone), gone, node.View().Map().Alive())
	}
	return readAll(node, want)
}

// handRolledHello is the admission of a hand-rolled initial member: the
// hello, answered by a table frame that says who it is.
func handRolledHello(c *mpi.Comm) (member.NodeID, error) {
	if err := c.Send(0, tagCtrl, []byte{ctrlJoin, 0}); err != nil {
		return member.NoNode, err
	}
	data, _, err := c.Recv(0, tagCtrl)
	if err != nil || len(data) == 0 || data[0] != ctrlTable {
		return member.NoNode, fmt.Errorf("hello answered by %v (%v)", data, err)
	}
	id, _, _, _, err := decodeCommit(data[1:])
	return id, err
}

// idle reports whether the coordinator has no rebalance job active or
// queued.
func (e *elasticCtrl) idle() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.coord.active == nil && len(e.coord.queue) == 0
}

// elasticExit is one rank of the elastic exit rows: rank 2 gets in as an
// initial member or as a joiner, takes the exit, and tells the others;
// ranks 0 and 1 wait for the cluster to settle, read everything that
// still has a live owner, and Close.
func elasticExit(c *mpi.Comm, x *exited, joiner bool, exit string, parts func(int) [][]byte, want map[string][]byte) error {
	opts := ElasticOptions{Options: x.options(), PullTimeout: 200 * time.Millisecond}
	if joiner {
		opts.InitialMembers = 2
	}
	var node *Node
	var err error
	if joiner && c.Rank() == 2 {
		for i := 0; i < 2; i++ {
			if _, _, err := c.Recv(mpi.AnySource, tagTestReady); err != nil {
				return err
			}
		}
		node, err = JoinCluster(c, 0, opts)
	} else {
		node, err = MountElastic(c, parts(c.Rank()), opts)
	}
	if err != nil {
		return err
	}
	x.node = node
	if joiner {
		// The members outlive the join: a cluster that shuts down under a
		// joiner leaves it waiting for a table nobody will send.
		if c.Rank() == 2 {
			for r := 0; r < 2 && err == nil; r++ {
				err = c.Send(r, tagTestJoined, nil)
			}
		} else if err = c.Send(2, tagTestReady, nil); err == nil {
			_, _, err = c.Recv(2, tagTestJoined)
		}
		if err != nil {
			return err
		}
	}
	if exit == "Close" {
		x.survivor = true
		if err := readAll(node, want); err != nil {
			return err
		}
		return node.Close()
	}

	if c.Rank() == 2 {
		if err := readAll(node, want); err != nil {
			return err
		}
		var gone [4]byte
		binary.LittleEndian.PutUint32(gone[:], uint32(node.ID()))
		if exit == "LeaveCluster" {
			x.survivor = true
			if err := node.LeaveCluster(); err != nil {
				return err
			}
		} else {
			// Nobody may be reading from this node when it dies: wait for
			// the survivors' first pass.
			for i := 0; i < 2; i++ {
				if _, _, err := c.Recv(mpi.AnySource, tagTestApplied); err != nil {
					return err
				}
			}
			node.FailStop()
		}
		for r := 0; r < 2; r++ {
			if err := c.Send(r, tagTestKilled, gone[:]); err != nil {
				return err
			}
		}
		return nil
	}

	x.survivor = true
	if exit == "FailStop" {
		if err := readAll(node, want); err != nil {
			return err
		}
		if err := c.Send(2, tagTestApplied, nil); err != nil {
			return err
		}
	}
	data, _, err := c.Recv(2, tagTestKilled)
	if err != nil {
		return err
	}
	gone := member.NodeID(int32(binary.LittleEndian.Uint32(data)))
	if exit == "FailStop" {
		// A replicate mount has no second copy of what the dead node
		// owned: the repair job fails its pulls and commits nothing, and
		// the survivors read what is left.
		if c.Rank() == 0 {
			if err := node.MarkDead(gone); err != nil {
				return err
			}
			if err := awaitCond("the repair job to settle", node.ectrl.idle); err != nil {
				return err
			}
			if err := c.Send(1, tagTestFreeze, nil); err != nil {
				return err
			}
		} else if _, _, err := c.Recv(0, tagTestFreeze); err != nil {
			return err
		}
		if err := readLive(node, want, gone); err != nil {
			return err
		}
		return node.Close()
	}
	// The drain commit may still be in flight to a non-coordinator.
	err = awaitCond("the drain commit", func() bool { return ownedBy(node, gone) == 0 })
	if err != nil {
		return err
	}
	if err := readAll(node, want); err != nil {
		return err
	}
	return node.Close()
}

// TestElasticNodeRunsOneControlGoroutine is the census of the one control
// plane: a mounted elastic world at rest runs exactly one goroutine a
// node more than a static world mounted with the same options — the ctrl
// loop. (Two before the membership protocol was folded into it.)
func TestElasticNodeRunsOneControlGoroutine(t *testing.T) {
	const world = 3
	bundle, _ := buildBundle(t, dataset.ImageNet, 12, 6, 2<<10, nil)
	atRest := func(elastic bool) int {
		count := 0
		err := mpi.Run(world, func(c *mpi.Comm) (err error) {
			parts, opts := [][]byte{bundle.Scatter[2*c.Rank()], bundle.Scatter[2*c.Rank()+1]}, Options{CacheBytes: 1 << 20}
			var node *Node
			if elastic {
				node, err = MountElastic(c, parts, ElasticOptions{Options: opts})
			} else {
				node, err = Mount(c, parts, nil, opts)
			}
			if err != nil {
				return err
			}
			defer node.Close()
			// Everyone is mounted past the first barrier and parked in the
			// second while rank 0 counts; the lowest of a few samples is the
			// world at rest.
			if err := c.Barrier(); err != nil {
				return err
			}
			if c.Rank() == 0 {
				count = runtime.NumGoroutine()
				for i := 0; i < 50; i++ {
					time.Sleep(time.Millisecond)
					count = min(count, runtime.NumGoroutine())
				}
			}
			return c.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		return count
	}
	static := atRest(false)
	if got := atRest(true) - static; got != world {
		t.Fatalf("a %d-rank elastic world at rest runs %d goroutines more than a static one (%d), want %d: one ctrl loop a node",
			world, got, static, world)
	}
}

// TestStaticNodeRunsOnlyRPCWorkers is the census of a static node's
// daemons: a mounted three-rank world at rest runs, over the same world
// unmounted, only goroutines parked in rpc.(*Server).worker — each node's
// full server width of them, and no decode pool or loop of its own.
func TestStaticNodeRunsOnlyRPCWorkers(t *testing.T) {
	const world = 3
	bundle, _ := buildBundle(t, dataset.ImageNet, 12, 6, 2<<10, nil)
	// stacks splits the process's goroutines into rpc server workers and
	// the rest, by stack.
	stacks := func() (workers, others int) {
		buf := make([]byte, 1<<16)
		for {
			n := runtime.Stack(buf, true)
			if n < len(buf) {
				buf = buf[:n]
				break
			}
			buf = make([]byte, 2*len(buf))
		}
		for _, g := range bytes.Split(buf, []byte("\n\n")) {
			if bytes.Contains(g, []byte("rpc.(*Server).worker(")) {
				workers++
			} else {
				others++
			}
		}
		return workers, others
	}
	atRest := func(mounted bool) (workers, others int) {
		err := mpi.Run(world, func(c *mpi.Comm) error {
			if mounted {
				node, err := Mount(c, [][]byte{bundle.Scatter[2*c.Rank()], bundle.Scatter[2*c.Rank()+1]}, nil, Options{CacheBytes: 1 << 20})
				if err != nil {
					return err
				}
				defer node.Close()
			}
			// Everyone is past the first barrier and parked in the second
			// while rank 0 counts; the lowest of a few samples is the world
			// at rest.
			if err := c.Barrier(); err != nil {
				return err
			}
			if c.Rank() == 0 {
				workers, others = stacks()
				for i := 0; i < 50; i++ {
					time.Sleep(time.Millisecond)
					w, o := stacks()
					workers, others = min(workers, w), min(others, o)
				}
			}
			return c.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		return workers, others
	}
	_, bare := atRest(false)
	workers, others := atRest(true)
	if width := max(runtime.GOMAXPROCS(0), 4); workers != world*width {
		t.Fatalf("a mounted %d-rank static world runs %d rpc server workers, want %d (%d a node)", world, workers, world*width, width)
	}
	if others != bare {
		t.Fatalf("a mounted %d-rank static world at rest runs %d goroutines besides its rpc server workers, an unmounted one %d: want none added",
			world, others, bare)
	}
}
