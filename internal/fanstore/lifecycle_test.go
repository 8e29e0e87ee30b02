package fanstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"fanstore/internal/dataset"
	"fanstore/internal/member"
	"fanstore/internal/mpi"
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
				mem, err := member.Join(c, 0)
				if err != nil {
					return err
				}
				defer mem.Close()
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
					mem := member.StartCoordinator(c)
					defer mem.Close()
					if _, _, err := c.Recv(1, tagCtrl); err != nil {
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
				mem, err := member.Join(c, 0)
				if err != nil {
					return err
				}
				defer mem.Close()
				if err := c.Send(0, tagCtrl, encodeRegister(mem.ID(), nil)); err != nil {
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
