package fanstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"fanstore/internal/dataset"
	"fanstore/internal/member"
	"fanstore/internal/mpi"
	"fanstore/internal/pack"
)

// The kill-schedule runner draws, from one seed, a schedule of membership
// changes and faults for a five-rank world — four members and a spare —
// and runs it under each redundancy while every member reads the whole
// dataset in a loop. After every step the cluster settles and the
// invariants are checked; at exit every rank passes the lifecycle table's
// quiesce check. What a seed reproduces is the schedule, not the
// interleaving: re-run a failing seed under -race -count N.
//
// Checked throughout:
//   - every read is byte-exact, or fails with ErrRemoteGone only for a
//     killed owner's record before the reader has the death on its map,
//     or with ErrLost only for a killed owner's record under none (under
//     ec one loss at a time never leaves a partition without a source);
//   - staged bytes never exceed the cache capacity, the headroom of an
//     empty cache;
//   - the map version a member routes on never goes down.
//
// Checked at each quiet point, once the step's commits have settled:
//   - every member has the coordinator's map;
//   - each partition has one owner on every member, alive and serving it,
//     or dead and lost (none only); under ec every partition whose owner
//     lives has all k+m shard indices on live nodes;
//   - each live node runs its rpc workers and one ctrl loop, and no node
//     that is gone runs either.

// schedStep is one step of a drawn schedule.
type schedStep struct {
	kind  string        // kill, leave, join, failed-join, pill or pause
	rank  int           // the rank the step acts on
	from  int           // pill: the rank that sends it
	delay time.Duration // kill: until MarkDead; pause: its length
}

func (s schedStep) String() string {
	switch s.kind {
	case "pill":
		return fmt.Sprintf("pill %d->%d", s.from, s.rank)
	case "kill", "pause":
		return fmt.Sprintf("%s %d (%v)", s.kind, s.rank, s.delay)
	}
	return fmt.Sprintf("%s %d", s.kind, s.rank)
}

const (
	schedWorld        = 5
	schedMembers      = 4
	schedFetchTimeout = 100 * time.Millisecond
)

// drawSchedule draws 4–8 steps from seed, each allowed by the membership
// the steps before it leave: rank 0 coordinates and never leaves or dies,
// a killed rank never comes back, and a rank that left (or never joined)
// may join again.
func drawSchedule(seed uint64) []schedStep {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	live, free := []int{0, 1, 2, 3}, []int{4}
	pick := func(ranks []int) int { return ranks[rng.IntN(len(ranks))] }
	steps := make([]schedStep, 4+rng.IntN(5))
	for i := range steps {
		for steps[i].kind == "" {
			s := schedStep{kind: []string{"kill", "leave", "join", "failed-join", "pill", "pause"}[rng.IntN(6)]}
			switch s.kind {
			case "kill", "leave":
				if len(live) < 2 {
					continue
				}
				s.rank = pick(live[1:])
				live = slices.DeleteFunc(live, func(r int) bool { return r == s.rank })
				if s.kind == "kill" {
					s.delay = time.Duration(rng.IntN(250)) * time.Millisecond
				} else {
					free = append(free, s.rank)
				}
			case "join", "failed-join":
				if len(free) == 0 {
					continue
				}
				s.rank = pick(free)
				if s.kind == "join" {
					free = slices.DeleteFunc(free, func(r int) bool { return r == s.rank })
					live = append(live, s.rank)
				}
			case "pill":
				s.rank = pick(live)
				for s.from = rng.IntN(schedWorld); s.from == s.rank; s.from = rng.IntN(schedWorld) {
				}
			case "pause":
				s.rank = pick(live)
				s.delay = schedFetchTimeout * time.Duration(110+rng.IntN(40)) / 100
			}
			steps[i] = s
		}
	}
	return steps
}

// gatedBackend is a backend whose reads a pause step can hold: a slow
// peer, whose replies arrive after the caller's deadline.
type gatedBackend struct {
	Backend
	gate sync.RWMutex
}

func (b *gatedBackend) Get(path string) (uint16, []byte, error) {
	b.gate.RLock()
	b.gate.RUnlock()
	return b.Backend.Get(path)
}

func (b *gatedBackend) Peek(path string) (uint16, []byte, bool) {
	b.gate.RLock()
	b.gate.RUnlock()
	return b.Backend.Peek(path)
}

// schedWorldState is one run of a schedule: the rank goroutines execute
// what drive sends them, and the readers report the first violation.
type schedWorldState struct {
	red    Redundancy
	bundle *pack.Bundle
	want   map[string][]byte
	paths  []string

	cmds  [schedWorld]chan func(*mpi.Comm, *exited) error
	errs  [schedWorld]chan error
	comms [schedWorld]*mpi.Comm
	xs    [schedWorld]exited

	nodes    [schedWorld]*Node
	gates    [schedWorld]*gatedBackend
	watchers [schedWorld]func() error
	readers  [schedWorld]chan struct{} // closed to stop the rank's reader
	readDone [schedWorld]chan struct{}

	mu      sync.Mutex
	killed  map[member.NodeID]bool
	readErr error
}

// do runs fn on each of ranks at once and returns the first error.
func (w *schedWorldState) do(ranks []int, fn func(*mpi.Comm, *exited) error) error {
	for _, r := range ranks {
		w.cmds[r] <- fn
	}
	var first error
	for _, r := range ranks {
		if err := <-w.errs[r]; err != nil && first == nil {
			first = fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return first
}

func (w *schedWorldState) options(x *exited, rank int) ElasticOptions {
	o := x.options()
	o.CacheBytes, o.CachePolicy = 64<<10, Immediate
	o.FetchTimeout, o.FetchRetries, o.Redundancy = schedFetchTimeout, 2, w.red
	w.gates[rank] = &gatedBackend{Backend: o.Backend}
	o.Backend = w.gates[rank]
	return ElasticOptions{Options: o, InitialMembers: schedMembers, PullTimeout: 250 * time.Millisecond}
}

// live lists the ranks with a mounted node, in rank order.
func (w *schedWorldState) live() []int {
	var ranks []int
	for r, n := range w.nodes {
		if n != nil {
			ranks = append(ranks, r)
		}
	}
	return ranks
}

// up starts watching a node drive just saw mount: its map version,
// and a reader over the whole dataset.
func (w *schedWorldState) up(rank int, node *Node) {
	w.nodes[rank] = node
	w.xs[rank].node = node
	w.watchers[rank] = watchVersion(node)
	w.readers[rank], w.readDone[rank] = make(chan struct{}), make(chan struct{})
	go w.read(rank, node, w.readers[rank], w.readDone[rank])
}

// down stops watching a node about to exit, reporting a map version that
// went down.
func (w *schedWorldState) down(rank int) error {
	close(w.readers[rank])
	<-w.readDone[rank]
	w.nodes[rank] = nil
	return w.watchers[rank]()
}

func (w *schedWorldState) fail(err error) {
	w.mu.Lock()
	if w.readErr == nil {
		w.readErr = err
	}
	w.mu.Unlock()
}

// read is a member's read storm: windows of six paths, each prefetched
// and then read, every read checked.
func (w *schedWorldState) read(rank int, node *Node, stop, done chan struct{}) {
	defer close(done)
	lossy := w.red == Redundancy{}
	for i := 7 * rank; ; i += 6 {
		select {
		case <-stop:
			return
		default:
		}
		window := make([]string, 6)
		for j := range window {
			window[j] = w.paths[(i+j)%len(w.paths)]
		}
		node.Prefetch(window)
		if staged, capacity := node.StagedBytes(), node.cache.Capacity(); staged > capacity {
			w.fail(fmt.Errorf("rank %d: %d bytes staged in a %d-byte cache", rank, staged, capacity))
		}
		for _, p := range window {
			owner := ownerOf(node, p)
			o, _ := node.View().Map().Lookup(owner)
			got, err := node.ReadFile(p)
			w.mu.Lock()
			killed := w.killed[owner]
			w.mu.Unlock()
			switch {
			case err == nil && bytes.Equal(got, w.want[p]):
			case err == nil:
				w.fail(fmt.Errorf("rank %d read %s: content mismatch", rank, p))
			case killed && o.State != member.StateDead && errors.Is(err, ErrRemoteGone):
			case killed && lossy && errors.Is(err, ErrLost):
			default:
				w.fail(fmt.Errorf("rank %d read %s, owner %v (killed %v, %v on the map before the read): %w", rank, p, owner, killed, o.State, err))
			}
		}
	}
}

// settle waits out the step's commits and checks the quiet point.
func (w *schedWorldState) settle() error {
	coord := w.nodes[0]
	if err := awaitCond("the coordinator to be idle", func() bool { return coord.ectrl.idle() && coord.RebalancePending() == 0 }); err != nil {
		return err
	}
	final := coord.View().Map()
	live := w.live()
	var nodes []*Node
	for _, r := range live {
		nodes = append(nodes, w.nodes[r])
	}
	for _, n := range nodes {
		if err := awaitCond("the coordinator's map", func() bool { return bytes.Equal(n.View().Map().Encode(), final.Encode()) }); err != nil {
			return fmt.Errorf("rank %d at %+v, coordinator at %+v: %w", n.Rank(), n.View().Map(), final, err)
		}
	}
	// One owner per partition, the same on every member: alive and
	// serving it, or (none) dead and lost.
	byID := make(map[member.NodeID]*Node)
	for _, n := range nodes {
		byID[n.ID()] = n
	}
	owners := func() error {
		owner := make(map[uint64]member.NodeID)
		for _, n := range nodes {
			n.mu.RLock()
			recs := n.recordsLocked()
			n.mu.RUnlock()
			for p, m := range recs {
				id := member.NodeID(m.Owner)
				if was, ok := owner[m.PartGID]; ok && was != id {
					return fmt.Errorf("partition %d: %s names node %v on rank %d, another record node %v", m.PartGID, p, id, n.Rank(), was)
				}
				owner[m.PartGID] = id
			}
		}
		for gid, id := range owner {
			node, onMap := final.Lookup(id)
			switch {
			case node.State == member.StateDead && w.red == Redundancy{}:
			case !onMap:
				return fmt.Errorf("partition %d: owner %v is not on the map", gid, id)
			case node.State != member.StateAlive || byID[id] == nil:
				return fmt.Errorf("partition %d: owner %v is %v on the map", gid, id, node.State)
			default:
				byID[id].mu.RLock()
				held := byID[id].parts[gid] != nil
				byID[id].mu.RUnlock()
				if !held {
					return fmt.Errorf("partition %d: owner %v does not hold it", gid, id)
				}
			}
		}
		return nil
	}
	if err := awaitCond("one owner per partition", func() bool { return owners() == nil }); err != nil {
		return fmt.Errorf("%w: %v", err, owners())
	}
	if w.red != (Redundancy{}) {
		full := func() bool {
			for _, have := range shardCensus(nodes) {
				if have != w.red.K+w.red.M {
					return false
				}
			}
			return true
		}
		if err := awaitCond("every stripe whole on the live nodes", full); err != nil {
			return fmt.Errorf("%w: shard indices by partition: %v", err, shardCensus(nodes))
		}
	}
	census := func() (workers, loops int) {
		buf := make([]byte, 1<<20)
		for _, g := range bytes.Split(buf[:runtime.Stack(buf, true)], []byte("\n\n")) {
			if bytes.Contains(g, []byte("rpc.(*Server).worker(")) {
				workers++
			}
			if bytes.Contains(g, []byte("(*elasticCtrl).ctrlLoop(")) {
				loops++
			}
		}
		return workers, loops
	}
	width := max(runtime.GOMAXPROCS(0), 4)
	if err := awaitCond("the goroutine census", func() bool {
		workers, loops := census()
		return workers == len(live)*width && loops == len(live)
	}); err != nil {
		workers, loops := census()
		return fmt.Errorf("%w: %d live nodes run %d rpc workers and %d ctrl loops, want %d and %d",
			err, len(live), workers, loops, len(live)*width, len(live))
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.readErr
}

// step runs one step of the schedule.
func (w *schedWorldState) step(s schedStep) error {
	switch s.kind {
	case "kill":
		node := w.nodes[s.rank]
		if err := w.down(s.rank); err != nil {
			return err
		}
		w.mu.Lock()
		w.killed[node.ID()] = true
		w.mu.Unlock()
		if err := w.do([]int{s.rank}, func(_ *mpi.Comm, x *exited) error { node.FailStop(); x.survivor = false; return nil }); err != nil {
			return err
		}
		time.Sleep(s.delay)
		return w.nodes[0].MarkDead(node.ID())
	case "leave":
		node := w.nodes[s.rank]
		if err := w.down(s.rank); err != nil {
			return err
		}
		// Not a survivor: peers that routed to it on the map before its
		// drain commit leave their requests in its mailbox.
		return w.do([]int{s.rank}, func(_ *mpi.Comm, x *exited) error {
			x.survivor = false
			return node.LeaveCluster()
		})
	case "join":
		var node *Node
		err := w.do([]int{s.rank}, func(c *mpi.Comm, x *exited) (err error) {
			node, err = JoinCluster(c, 0, w.options(x, c.Rank()))
			return err
		})
		if err == nil {
			w.up(s.rank, node)
		}
		return err
	case "failed-join":
		// A table that does not decode, queued ahead of the real one: the
		// join fails after its daemons started, and asks to be drained.
		if err := w.comms[0].Send(s.rank, tagCtrl, garbageTable); err != nil {
			return err
		}
		v := w.nodes[0].MapVersion()
		err := w.do([]int{s.rank}, func(c *mpi.Comm, x *exited) error {
			if _, err := JoinCluster(c, 0, w.options(x, c.Rank())); err == nil {
				return fmt.Errorf("a join fed a garbage table succeeded")
			}
			return nil
		})
		if err != nil {
			return err
		}
		// The coordinator admits the rank, commits its join (which fails
		// its pulls) and then its leave: three map versions.
		return awaitCond("the failed joiner's admission and drain", func() bool { return w.nodes[0].MapVersion() >= v+3 })
	case "pill":
		return w.comms[s.from].Send(s.rank, tagCtrl, nil)
	case "pause":
		g := w.gates[s.rank]
		g.gate.Lock()
		time.Sleep(s.delay)
		g.gate.Unlock()
	}
	return nil
}

// runSchedule runs seed's schedule under red and checks the world at
// exit.
func runSchedule(t *testing.T, bundle *pack.Bundle, want map[string][]byte, red Redundancy, seed uint64) {
	steps := drawSchedule(seed)
	baseline := runtime.NumGoroutine()
	w := &schedWorldState{red: red, bundle: bundle, want: want, killed: make(map[member.NodeID]bool)}
	for p := range want {
		w.paths = append(w.paths, p)
	}
	slices.Sort(w.paths)
	for r := range w.cmds {
		w.cmds[r], w.errs[r] = make(chan func(*mpi.Comm, *exited) error), make(chan error)
	}
	driven := make(chan error, 1)
	go func() { driven <- w.drive(steps) }()
	err := mpi.Run(schedWorld, func(c *mpi.Comm) error {
		w.comms[c.Rank()], w.xs[c.Rank()].comm = c, c
		for fn := range w.cmds[c.Rank()] {
			w.errs[c.Rank()] <- fn(c, &w.xs[c.Rank()])
		}
		return nil
	})
	names := make([]string, len(steps))
	for i, s := range steps {
		names[i] = s.String()
	}
	if derr := <-driven; derr != nil || err != nil {
		t.Fatalf("schedule [%s]: %v (world: %v)", strings.Join(names, ", "), derr, err)
	}
	for i := range w.xs {
		if err := quiesce(&w.xs[i]); err != nil {
			t.Errorf("schedule [%s]: %v", strings.Join(names, ", "), err)
		}
	}
	awaitGoroutines(t, baseline)
}

// drive mounts the members, runs the steps, settling after each, and
// closes the cluster; every rank goroutine returns when it is done.
func (w *schedWorldState) drive(steps []schedStep) (err error) {
	defer func() {
		for r := range w.cmds {
			close(w.cmds[r])
		}
	}()
	members := []int{0, 1, 2, 3}
	var mounted [schedMembers]*Node
	err = w.do(members, func(c *mpi.Comm, x *exited) (err error) {
		mounted[c.Rank()], err = MountElastic(c, [][]byte{w.bundle.Scatter[2*c.Rank()], w.bundle.Scatter[2*c.Rank()+1]}, w.options(x, c.Rank()))
		return err
	})
	if err != nil {
		return err
	}
	// Shard placement crosses ranks during mount: no step runs before
	// every member's pushes have landed (the barrier is the world's).
	if err := w.do([]int{0, 1, 2, 3, 4}, func(c *mpi.Comm, _ *exited) error { return c.Barrier() }); err != nil {
		return err
	}
	for r, n := range mounted {
		w.up(r, n)
	}
	for i, s := range steps {
		if err := w.step(s); err != nil {
			return fmt.Errorf("step %d (%v): %w", i, s, err)
		}
		if err := w.settle(); err != nil {
			return fmt.Errorf("after step %d (%v): %w", i, s, err)
		}
		if s.kind != "failed-join" {
			continue
		}
		// A failed joiner's rank holds what the coordinator sent the node
		// it briefly was — its table, moves, drain verdict, all queued by
		// now — until it is drained, before it joins again or the world
		// ends. Requests peers sent an earlier node of the rank (one that
		// left) stay: its next node serves them.
		_ = w.do([]int{s.rank}, func(c *mpi.Comm, x *exited) error {
			for {
				if _, _, err := c.RecvDeadline(mpi.AnySource, tagCtrl, 20*time.Millisecond); err != nil {
					x.survivor = c.Pending() == 0
					return nil
				}
			}
		})
	}
	live := w.live()
	for _, r := range live {
		if err := w.down(r); err != nil {
			return err
		}
	}
	if err := w.do(live, func(_ *mpi.Comm, x *exited) error { x.survivor = true; return x.node.Close() }); err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.readErr
}

// schedCISeeds is the seed set `make test` and `make race` run: between
// them their schedules take every kind of step.
var schedCISeeds = []uint64{1, 2, 3, 4}

// TestKillSchedules runs the ci seed set under none, ec(1,0) and ec(2,1).
func TestKillSchedules(t *testing.T) { runSchedules(t, schedCISeeds) }

func runSchedules(t *testing.T, seeds []uint64) {
	bundle, want := buildBundle(t, dataset.ImageNet, 24, 8, 2<<10, nil)
	for _, red := range []Redundancy{{}, {K: 1}, {K: 2, M: 1}} {
		t.Run(red.String(), func(t *testing.T) {
			for _, seed := range seeds {
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runSchedule(t, bundle, want, red, seed) })
			}
		})
	}
}

// TestKillScheduleDraws pins what the ci seed set covers: every step
// kind, kills under each redundancy included.
func TestKillScheduleDraws(t *testing.T) {
	kinds := make(map[string]int)
	for _, seed := range schedCISeeds {
		for _, s := range drawSchedule(seed) {
			kinds[s.kind]++
		}
	}
	for _, k := range []string{"kill", "leave", "join", "failed-join", "pill", "pause"} {
		if kinds[k] == 0 {
			t.Errorf("the ci seeds draw no %s step (%v)", k, kinds)
		}
	}
}
