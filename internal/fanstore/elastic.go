package fanstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"fanstore/internal/decomp"
	"fanstore/internal/member"
	"fanstore/internal/metrics"
	"fanstore/internal/mpi"
	"fanstore/internal/obs"
)

// Elastic mode: the fixed-size mpi world becomes a pool of slots, and the
// member package's versioned ClusterMap decides which slots are cluster
// members. Ranks 0..InitialMembers-1 call MountElastic collectively
// (rank 0 is the coordinator); any other slot can later call
// JoinCluster, which admits it to the map, ships it the metadata table,
// and triggers an online delta rebalance — moving partitions stream to
// the new owner over the ordinary fetch worker pool while every member
// keeps serving reads, and the handoff only commits (map version bump +
// ownership rewrite + old-owner drop) once all transfers have landed.
//
// There is one control plane, a star on tagCtrl, and one sender of
// everything a member learns about its map or its metadata: the
// coordinator's ctrl loop owns the cluster map, is the only goroutine
// that changes it, and publishes every change — an admission, a death,
// a rebalance — as a frame on the (coordinator, tagCtrl) stream, which
// the transport keeps in order. A rank is on nobody's map before the
// first frame it is owed (its table) has been sent, and the commit that
// drains a leaver is the commit that takes it off. Reads never wait on
// the control plane — they run on the fetch plane and recover from the
// one race the scheme allows (routing planned on a map one commit
// behind) through the typed stale-map retry in fetchRemote.

// Control ops, the first byte of every tagCtrl frame (DESIGN.md,
// "Membership & rebalance", has the table). Table, move, commit, drained
// and bye-ack frames are accepted from the coordinator's rank only, a
// dead frame and the stop pill from this rank only.
const (
	ctrlRegister = byte(1)  // member -> coord: partition inventory at mount
	ctrlTable    = byte(2)  // coord -> rank: its identity, the map, the full metadata table (commit layout)
	ctrlJoin     = byte(3)  // rank -> coord: admit me; u8 1: and rebalance me in, 0: I register next
	ctrlMove     = byte(4)  // coord -> dest: pull one partition
	ctrlMoved    = byte(5)  // dest -> coord: pull finished (ok or failed)
	ctrlCommit   = byte(6)  // coord -> members: new map + rewritten owners
	ctrlLeave    = byte(7)  // leaver -> coord: drain my partitions; i32 id, NoNode: whoever is at my rank
	ctrlDrained  = byte(8)  // coord -> leaver: drain ack, u8 status (1: you own nothing and are off the map, go)
	ctrlBye      = byte(9)  // member -> coord: done with the namespace
	ctrlByeAck   = byte(10) // coord -> members: everyone said bye, shut down
	ctrlDead     = byte(11) // coord -> itself: i32 id, a member failed (MarkDead)
)

// ctrlWait bounds every wait for the coordinator — the table, a join's
// commit, a drain's verdict, the bye ack — so a dead or wedged
// coordinator turns the call into an error instead of a hang.
const ctrlWait = 60 * time.Second

// ElasticOptions configures an elastic mount.
type ElasticOptions struct {
	Options
	// InitialMembers is how many ranks (0..InitialMembers-1) mount
	// collectively at start; the remaining slots are spare capacity for
	// JoinCluster. 0 means the whole world (a fully-populated elastic
	// cluster, still able to shrink).
	InitialMembers int
	// NodeCapacity bounds each member's partition bytes for rebalance
	// planning (0: effectively unbounded — the aggregate dataset size).
	NodeCapacity int64
	// PullTimeout bounds how long the coordinator waits for a dispatched
	// partition pull to ack before treating the destination as failed and
	// re-planning the transfer (default 30s). A destination that dies
	// mid-pull never acks — without the watchdog the partition would park
	// in the registry forever.
	PullTimeout time.Duration
}

// transfer is one partition changing owner in a rebalance.
type transfer struct {
	gid  uint64
	from member.NodeID
	to   member.NodeID
}

// partRec is the coordinator's registry entry for one loaded partition.
type partRec struct {
	gid   uint64
	size  int64
	owner member.NodeID
	metas []FileMeta // records for the partition's entries (owner-stamped)
}

// coordState is what only the coordinator holds: the cluster map and the
// rebalance machinery. The ctrl loop is its only user (MountElastic's
// gather, before the loop starts, included), but for what elasticCtrl.mu
// guards because another goroutine uses it: the pull watchdog reads the
// active job and its pending transfers, tests the queue, and MarkDead
// leaves its mark. Everyone else reads the map through the node's view.
type coordState struct {
	cur      *member.ClusterMap // the cluster map; every change is a transition of it
	nextID   member.NodeID      // identity of the next admission; never reused
	registry map[uint64]*partRec
	// One rebalance runs at a time; later joins/leaves queue.
	active *rebalanceJob
	queue  []*rebalanceJob
	byes   map[member.NodeID]bool
	marks  map[member.NodeID]chan struct{} // MarkDead calls waiting for the loop, by the node they report
}

// maxJobAttempts bounds how many dispatch rounds one rebalance job may
// run (the first round plus re-plans of its failures) before the job
// fails loudly: the failed transfers are dropped, rebalance.jobs.failed
// counts the job, and the partitions keep their current owner.
const maxJobAttempts = 3

// rebalanceJob tracks one in-flight join, leave or repair rebalance.
type rebalanceJob struct {
	transfers map[uint64]transfer // pending pulls, keyed by gid
	done      []transfer          // acked pulls (these commit)
	failed    []transfer          // failed pulls (re-planned against the refreshed map)
	attempts  int                 // dispatch rounds run so far
	joiner    member.NodeID       // the node whose join this is; its commit names it. NoNode otherwise
	leaver    member.NodeID       // the node to empty (a leave, a death); NoNode for a join
	leaveRank int                 // where a voluntary leaver waits for its verdict; -1 otherwise
}

// elasticCtrl is a Node's elastic control plane: the ctrl loop, the
// signals it raises for the calls waiting on it, and (on the
// coordinator) the cluster map and the rebalance state machine.
type elasticCtrl struct {
	n         *Node
	opts      ElasticOptions
	coordRank int

	// done is nil until the ctrl loop is started and closed when it
	// returns — on a poison pill, on the coordinator's bye ack (on the
	// coordinator: on the last member's bye), or with the world.
	done chan struct{}

	mu    sync.Mutex
	coord *coordState // nil on non-coordinators

	joined  chan struct{} // closed by the commit that names this node: its join's rebalance landed
	drained chan byte     // drain verdict from the coordinator (1: fully drained)

	rebalBytes   *metrics.Counter
	rebalPending *metrics.Gauge
	jobsFailed   *metrics.Counter
}

func newElasticCtrl(n *Node, coordRank int, opts ElasticOptions) *elasticCtrl {
	e := &elasticCtrl{
		n:            n,
		opts:         opts,
		coordRank:    coordRank,
		joined:       make(chan struct{}),
		drained:      make(chan byte, 1),
		rebalBytes:   n.reg.Counter("rebalance.bytes.moved"),
		rebalPending: n.reg.Gauge("rebalance.partitions.pending"),
		jobsFailed:   n.reg.Counter("rebalance.jobs.failed"),
	}
	if n.comm.Rank() == coordRank {
		e.coord = &coordState{
			cur:      &member.ClusterMap{},
			registry: make(map[uint64]*partRec),
			byes:     make(map[member.NodeID]bool),
			marks:    make(map[member.NodeID]chan struct{}),
		}
	}
	return e
}

// MountElastic mounts an elastic FanStore over ranks
// 0..InitialMembers-1 of the world; rank 0 is the coordinator. Unlike
// the static Mount it uses no world-wide collectives — metadata flows
// through the coordinator star — so the remaining slots stay free for
// later JoinCluster calls. Each mounting rank passes its own partitions.
func MountElastic(comm *mpi.Comm, partitions [][]byte, opts ElasticOptions) (*Node, error) {
	members := opts.InitialMembers
	if members <= 0 {
		members = comm.Size()
	}
	if comm.Rank() >= members {
		return nil, fmt.Errorf("fanstore: rank %d is not an initial member (InitialMembers=%d); use JoinCluster", comm.Rank(), members)
	}
	n, err := newNode(comm, true, opts.Options)
	if err != nil {
		return nil, err
	}
	n.ectrl = newElasticCtrl(n, 0, opts)
	if err := n.ectrl.mount(partitions, members); err != nil {
		_ = n.stop()
		return nil, fmt.Errorf("fanstore: elastic mount: %w", err)
	}
	return n, nil
}

// mount is the elastic mount's admission, its load and its exchange
// through the coordinator star; it starts the ctrl loop once the table
// is in place.
func (e *elasticCtrl) mount(partitions [][]byte, members int) error {
	n, comm := e.n, e.n.comm
	// The cluster starts as its coordinator alone (node 0, map v1); every
	// other initial member says hello and is told who it is.
	if e.coord != nil {
		n.selfID = e.admit(comm.Rank())
	} else if err := e.hello(0); err != nil {
		return err
	}
	// Load this rank's partitions under cluster-unique gids.
	var localParts []*partRec
	gids := make([]uint64, len(partitions))
	for i, blob := range partitions {
		// +1 keeps every gid nonzero, so FileMeta.PartGID == 0 can mean
		// "not in any partition" (written files, static mounts).
		gids[i] = uint64(n.selfID+1)<<32 | uint64(i)
		metas, err := n.loadPartitionGID(gids[i], blob)
		if err != nil {
			return err
		}
		localParts = append(localParts, &partRec{gid: gids[i], size: int64(len(blob)), owner: n.selfID, metas: metas})
	}

	var deferred []ctrlFrame
	if e.coord != nil {
		// Gather: admit each initial member at its hello, merge the
		// inventories, and end with the complete map and table to everyone
		// admitted. Nobody is told of an admission before that — the others
		// are not listening yet — and anything else (an eager joiner racing
		// the mount) is deferred to the ctrl loop.
		e.adopt(localParts)
		for seen := 0; seen < members-1; {
			data, src, err := comm.Recv(mpi.AnySource, tagCtrl)
			if err != nil {
				return err
			}
			switch {
			case len(data) == 2 && data[0] == ctrlJoin && data[1] == 0:
				if err := comm.Send(src, tagCtrl, encodeCommit(ctrlTable, e.admit(src), e.coord.cur, nil, nil)); err != nil {
					return err
				}
			case len(data) > 0 && data[0] == ctrlRegister:
				recs, err := decodeRegister(data[1:])
				if err != nil {
					return fmt.Errorf("rank %d registration: %w", src, err)
				}
				for _, rec := range recs {
					if rank, err := e.coord.cur.RankOf(rec.owner); err != nil || rank != src {
						return fmt.Errorf("rank %d registered as node %v, which it is not", src, rec.owner)
					}
				}
				e.adopt(recs)
				seen++
			default:
				deferred = append(deferred, ctrlFrame{data: data, src: src})
			}
		}
		n.numberObjects()
		table := e.encodeTable(member.NoNode) // encoded once, addressed to each in turn
		for _, node := range e.coord.cur.Alive() {
			if node.Rank == comm.Rank() {
				continue
			}
			binary.LittleEndian.PutUint32(table[1:], uint32(node.ID))
			if err := comm.Send(node.Rank, tagCtrl, table); err != nil {
				return err
			}
		}
	} else {
		if err := comm.Send(e.coordRank, tagCtrl, encodeRegister(n.selfID, localParts)); err != nil {
			return err
		}
		if err := e.recvTable(); err != nil {
			return err
		}
	}
	e.start(deferred)

	if n.ec != nil {
		// Initial shard placement: every owner splits its partitions into
		// k+m erasure shards and scatters them under the initial-member
		// map, which the table that ended the gather carried complete.
		// Every rank's server has been serving since newNode, so the
		// cross-pushes cannot deadlock.
		cm := n.view.Map()
		if err := n.ecPushParts(cm, n.ecRestore(cm, gids), false); err != nil {
			return fmt.Errorf("shard placement: %w", err)
		}
	}
	return nil
}

// admit puts the rank on the map under the next identity. Like every
// change of the map it runs on the coordinator's ctrl loop (or in the
// gather before it).
func (e *elasticCtrl) admit(rank int) member.NodeID {
	id := e.coord.nextID
	e.coord.nextID++
	e.setMap(e.coord.cur.WithNode(member.Node{ID: id, Rank: rank, State: member.StateAlive}))
	if e.n.events.Enabled() {
		e.n.events.Emitf(obs.EvMemberJoin, obs.SevInfo,
			"node %v joined at rank %d (map v%d, %d members)", id, rank, e.coord.cur.Version, len(e.coord.cur.Nodes))
	}
	return id
}

// setMap makes cm the cluster map and publishes it to this node's view;
// telling the other members is the caller's next step.
func (e *elasticCtrl) setMap(cm *member.ClusterMap) {
	e.coord.cur = cm
	e.n.installMap(cm)
}

// tell sends one frame to every alive member of cm but this rank and
// skip. Best-effort: a member that cannot be reached learns the version
// from a peer's stale-map error.
func (e *elasticCtrl) tell(cm *member.ClusterMap, skip int, frame []byte) {
	for _, node := range cm.Alive() {
		if node.Rank != e.n.comm.Rank() && node.Rank != skip {
			_ = e.n.comm.Send(node.Rank, tagCtrl, frame)
		}
	}
}

// adopt enters a member's partition inventory into the coordinator's
// registry and namespace.
func (e *elasticCtrl) adopt(recs []*partRec) {
	for _, rec := range recs {
		e.coord.registry[rec.gid] = rec
		for i := range rec.metas {
			e.n.addMeta(rec.metas[i])
		}
	}
}

// hello asks the coordinator to admit this rank and installs its answer.
// rebalance 1 also queues the join's rebalance (JoinCluster); 0 is an
// initial member, which registers its inventory next.
func (e *elasticCtrl) hello(rebalance byte) error {
	if err := e.n.comm.Send(e.coordRank, tagCtrl, []byte{ctrlJoin, rebalance}); err != nil {
		return err
	}
	return e.recvTable()
}

// recvTable installs a table frame: who this node is, the map it is on
// and the metadata table under that map. The node's identity and map are
// set here, before any peer can know the node — it is on no map sent to
// anyone until the coordinator has sent this frame.
func (e *elasticCtrl) recvTable() error {
	data, _, err := e.n.comm.RecvDeadline(e.coordRank, tagCtrl, ctrlWait)
	if err != nil || len(data) == 0 || data[0] != ctrlTable {
		return fmt.Errorf("bad table frame (%v)", err)
	}
	id, cm, _, metas, err := decodeCommit(data[1:])
	if err != nil {
		return err
	}
	e.n.selfID = id
	e.n.installMap(cm)
	for i := range metas {
		e.n.addMeta(metas[i])
	}
	e.n.numberObjects()
	return nil
}

// JoinCluster admits this rank to a running elastic cluster: one hello
// answered by its identity, the map and the metadata table, then the
// delta rebalance the hello queued. It returns once the commit of that
// rebalance lands — the one that names this node — so the returned node
// already owns its share of the partitions. A join that fails in newNode
// has asked nothing of the coordinator; one that fails later asks to be
// drained off the map again (best-effort, by rank: it may never have
// learned its identity), so a failed join leaks neither goroutines nor a
// ghost member that future rebalances would target.
func JoinCluster(comm *mpi.Comm, coordRank int, opts ElasticOptions) (*Node, error) {
	n, err := newNode(comm, true, opts.Options)
	if err != nil {
		return nil, err
	}
	n.ectrl = newElasticCtrl(n, coordRank, opts)
	if err := n.ectrl.join(); err != nil {
		_ = comm.Send(coordRank, tagCtrl, idFrame(ctrlLeave, member.NoNode))
		_ = n.stop()
		return nil, fmt.Errorf("fanstore: join: %w", err)
	}
	return n, nil
}

// join says hello and waits for the rebalance it asked for. Move pulls
// may target this node right after its table, which its fetch daemon
// (serving since newNode) and the ctrl loop started here answer. The
// join's rebalance always ends in a commit, even a no-move one.
func (e *elasticCtrl) join() error {
	if err := e.hello(1); err != nil {
		return err
	}
	e.start(nil)
	select {
	case <-e.joined:
		return nil
	case <-time.After(ctrlWait):
		return fmt.Errorf("rebalance commit did not arrive")
	}
}

type ctrlFrame struct {
	data []byte
	src  int
}

// start launches the ctrl loop, first replaying the frames a mount
// exchange received ahead of it.
func (e *elasticCtrl) start(deferred []ctrlFrame) {
	e.done = make(chan struct{})
	go e.ctrlLoop(deferred)
}

// stopLoop ends the ctrl loop if it was started and has not already
// returned (after a bye ack it has): a self-addressed pill nobody
// receives would stay queued in this rank's mailbox.
func (e *elasticCtrl) stopLoop() {
	if e.done == nil {
		return
	}
	select {
	case <-e.done:
	default:
		_ = e.n.comm.Send(e.n.comm.Rank(), tagCtrl, nil)
		<-e.done
	}
}

// ctrlLoop is the per-node control listener, the one control goroutine
// of an elastic node. On the coordinator it is also the membership and
// rebalance state machine: hellos, leaves and deaths arrive here, move
// acks advance the active job, and every commit is cut here, so every
// change of the map is made by one goroutine and reaches each member in
// the order it was made.
func (e *elasticCtrl) ctrlLoop(deferred []ctrlFrame) {
	defer close(e.done)
	for _, f := range deferred {
		if e.handleCtrl(f.data, f.src) {
			return
		}
	}
	for {
		data, src, err := e.n.comm.Recv(mpi.AnySource, tagCtrl)
		if err != nil {
			return
		}
		if e.handleCtrl(data, src) {
			return
		}
	}
}

// handleCtrl dispatches one control frame; true means the loop is done.
// What a frame may do depends on who sent it: only the coordinator's rank
// moves this node's map, metadata or partitions, which is what makes the
// one-sender order of the stream true rather than assumed. A frame that
// is short, or from the wrong rank, is ignored.
func (e *elasticCtrl) handleCtrl(data []byte, src int) bool {
	if len(data) == 0 {
		return src == e.n.comm.Rank() // poison pill (stopLoop)
	}
	switch op := data[0]; op {
	case ctrlJoin:
		if e.coord == nil || len(data) < 2 {
			return false
		}
		// One exchange: the rank is on the map, holds the table, and the
		// members already running know it, in that order on each stream.
		id := e.admit(src)
		_ = e.n.comm.Send(src, tagCtrl, e.encodeTable(id))
		e.tell(e.coord.cur, src, encodeCommit(ctrlCommit, member.NoNode, e.coord.cur, nil, nil))
		if data[1] == 1 {
			e.enqueueJob(&rebalanceJob{joiner: id, leaver: member.NoNode, leaveRank: -1})
		}
	case ctrlLeave, ctrlBye, ctrlDead:
		if e.coord == nil || len(data) < 5 {
			return false
		}
		id := member.NodeID(int32(binary.LittleEndian.Uint32(data[1:])))
		switch op {
		case ctrlBye:
			return e.noteBye(id)
		case ctrlDead:
			if src != e.n.comm.Rank() {
				return false
			}
			e.setMap(e.coord.cur.WithState(id, member.StateDead))
			if e.n.events.Enabled() {
				e.n.events.Emitf(obs.EvMemberDead, obs.SevError,
					"member %v marked dead; queuing repair rebalance", id)
			}
			e.tell(e.coord.cur, -1, encodeCommit(ctrlCommit, member.NoNode, e.coord.cur, nil, nil))
			e.enqueueJob(&rebalanceJob{joiner: member.NoNode, leaver: id, leaveRank: -1})
			e.mu.Lock()
			if ack := e.coord.marks[id]; ack != nil {
				close(ack)
				delete(e.coord.marks, id)
			}
			e.mu.Unlock()
		case ctrlLeave:
			if id == member.NoNode {
				id = nodeAt(e.coord.cur, src)
			}
			if node, ok := e.coord.cur.Lookup(id); ok && node.Rank == src {
				e.enqueueJob(&rebalanceJob{joiner: member.NoNode, leaver: id, leaveRank: src})
			}
		}
	case ctrlMove:
		if src != e.coordRank || len(data) < 13 {
			return false
		}
		gid := binary.LittleEndian.Uint64(data[1:])
		from := member.NodeID(int32(binary.LittleEndian.Uint32(data[9:])))
		go e.pullPartition(gid, from)
	case ctrlMoved:
		if e.coord == nil || len(data) < 10 {
			return false
		}
		gid := binary.LittleEndian.Uint64(data[1:])
		ok := data[9] == 1
		e.moveFinished(gid, ok)
	case ctrlCommit:
		if src != e.coordRank {
			return false
		}
		node, cm, transfers, metas, err := decodeCommit(data[1:])
		if err == nil {
			e.applyCommit(node, cm, transfers, metas)
		}
	case ctrlByeAck:
		return src == e.coordRank
	case ctrlDrained:
		// Status byte: 1 means every partition left this node. The send
		// is non-blocking so a late ack from a timed-out leave attempt
		// cannot wedge the ctrl loop.
		if src != e.coordRank || len(data) < 2 {
			return false
		}
		select {
		case e.drained <- data[1]:
		default:
		}
	}
	return false
}

// nodeAt resolves a rank to the member last admitted at it — what a
// joiner that failed before it learned its identity can say of itself —
// or NoNode.
func nodeAt(cm *member.ClusterMap, rank int) member.NodeID {
	id := member.NoNode
	for _, node := range cm.Alive() {
		if node.Rank == rank {
			id = node.ID
		}
	}
	return id
}

// idFrame is a control frame whose body is one node ID.
func idFrame(op byte, id member.NodeID) []byte {
	return binary.LittleEndian.AppendUint32([]byte{op}, uint32(id))
}

// enqueueJob starts (or queues) a rebalance.
func (e *elasticCtrl) enqueueJob(job *rebalanceJob) {
	e.mu.Lock()
	if e.coord.active != nil {
		e.coord.queue = append(e.coord.queue, job)
		e.mu.Unlock()
		return
	}
	e.coord.active = job
	e.mu.Unlock()
	e.startJob(job)
}

// startJob plans the active rebalance and fires its transfers (or
// commits straight away when nothing moves).
func (e *elasticCtrl) startJob(job *rebalanceJob) {
	transfers := e.planRebalance(job.leaver)
	job.transfers = make(map[uint64]transfer, len(transfers))
	for _, tr := range transfers {
		job.transfers[tr.gid] = tr
	}
	e.rebalPending.Set(int64(len(transfers)))
	if e.n.events.Enabled() {
		e.n.events.Emitf(obs.EvRebalanceStart, obs.SevInfo,
			"rebalance started: %d partition transfer(s) planned (leaver=%v)",
			len(transfers), job.leaver)
	}
	if len(transfers) == 0 {
		e.commitJob(job)
		return
	}
	e.dispatch(job, transfers)
}

// dispatch fires the ctrlMove for each transfer (or pulls directly when
// the coordinator itself is the destination). A transfer that cannot be
// dispatched is recorded as failed through moveFinished like any other
// failed pull. A watchdog reaps transfers still pending after
// PullTimeout — a destination that died mid-pull never acks, and
// without the reap its partition would park in the registry with the
// job wedged active forever.
func (e *elasticCtrl) dispatch(job *rebalanceJob, transfers []transfer) {
	gids := make([]uint64, len(transfers))
	for i, tr := range transfers {
		gids[i] = tr.gid
	}
	timeout := e.opts.PullTimeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	time.AfterFunc(timeout, func() { e.reapStalled(job, gids) })
	for _, tr := range transfers {
		rank, err := e.coord.cur.RankOf(tr.to)
		if err != nil {
			// Destination vanished between planning and dispatch: treat
			// the transfer as failed; the partition keeps its old owner.
			e.moveFinished(tr.gid, false)
			continue
		}
		frame := make([]byte, 13)
		frame[0] = ctrlMove
		binary.LittleEndian.PutUint64(frame[1:], tr.gid)
		binary.LittleEndian.PutUint32(frame[9:], uint32(tr.from))
		if rank == e.n.comm.Rank() {
			// The coordinator can be a destination too; pull without a
			// round trip through its own mailbox.
			go e.pullPartition(tr.gid, tr.from)
			continue
		}
		if err := e.n.comm.Send(rank, tagCtrl, frame); err != nil {
			e.moveFinished(tr.gid, false)
		}
	}
}

// reapStalled fails every transfer of this dispatch round still pending
// after the pull timeout, by handing the ctrl loop the failed ack the
// destination never sent: the timer's goroutine changes nothing itself.
// moveFinished ignores gids no longer pending, so a real ack racing the
// reap (either order) is counted exactly once; the job identity check
// keeps a stale timer from touching a later job.
func (e *elasticCtrl) reapStalled(job *rebalanceJob, gids []uint64) {
	var stalled []uint64
	e.mu.Lock()
	for _, gid := range gids {
		if _, ok := job.transfers[gid]; ok && e.coord.active == job {
			stalled = append(stalled, gid)
		}
	}
	e.mu.Unlock()
	for _, gid := range stalled {
		_ = e.n.comm.Send(e.n.comm.Rank(), tagCtrl, movedFrame(gid, false))
	}
}

// movedFrame is the ack of one pull.
func movedFrame(gid uint64, ok bool) []byte {
	frame := make([]byte, 10)
	frame[0] = ctrlMoved
	binary.LittleEndian.PutUint64(frame[1:], gid)
	if ok {
		frame[9] = 1
	}
	return frame
}

// planRebalance computes the transfers for the current membership: a
// minimal-movement delta placement over the registry, excluding leaver
// from the candidate set; under none a dead owner's partitions are lost
// and never planned. Coordinator-only; called from the ctrl loop.
func (e *elasticCtrl) planRebalance(leaver member.NodeID) []transfer {
	alive := e.coord.cur.Alive()
	ids := make([]member.NodeID, 0, len(alive))
	for _, node := range alive {
		if leaver != member.NoNode && node.ID == leaver {
			continue
		}
		ids = append(ids, node.ID)
	}
	if len(ids) == 0 {
		return nil
	}
	idx := make(map[member.NodeID]int, len(ids))
	for i, id := range ids {
		idx[id] = i
	}
	gids := make([]uint64, 0, len(e.coord.registry))
	var total int64
	for gid, rec := range e.coord.registry {
		if owner, _ := e.coord.cur.Lookup(rec.owner); e.n.ec == nil && owner.State == member.StateDead {
			continue
		}
		gids = append(gids, gid)
		total += rec.size
	}
	sort.Slice(gids, func(a, b int) bool { return gids[a] < gids[b] })
	sizes := make([]int64, len(gids))
	prev := make([]int, len(gids))
	for i, gid := range gids {
		rec := e.coord.registry[gid]
		sizes[i] = rec.size
		if j, ok := idx[rec.owner]; ok {
			prev[i] = j
		} else {
			prev[i] = -1 // owner left (or is leaving): must be re-placed
		}
	}
	capacity := e.opts.NodeCapacity
	if capacity <= 0 {
		capacity = total
		if capacity == 0 {
			capacity = 1
		}
	}
	plan, _, err := PlanDelta(sizes, prev, len(ids), capacity)
	if err != nil {
		return nil // infeasible: keep current ownership; reads still work
	}
	var out []transfer
	for node := range plan.Own {
		for _, pi := range plan.Own[node] {
			rec := e.coord.registry[gids[pi]]
			if rec.owner != ids[node] {
				out = append(out, transfer{gid: gids[pi], from: rec.owner, to: ids[node]})
			}
		}
	}
	return out
}

// pullPartition is the destination side of one transfer: fetch the blob
// from the old owner over the ordinary fetch rpc plane, load it, and ack
// the coordinator. Runs on its own goroutine so the ctrl listener stays
// responsive.
func (e *elasticCtrl) pullPartition(gid uint64, from member.NodeID) {
	ok := false
	if rank, err := e.n.view.Resolve(from); err == nil {
		var req [9]byte
		req[0] = opFetchPart
		binary.LittleEndian.PutUint64(req[1:], gid)
		if resp, err := e.n.client.Call(rank, req[:]); err == nil {
			// The backend aliases the blob for as long as the partition is
			// loaded, and a pooled frame carries up to 2x slack: keep an
			// exact-size copy and recycle the frame.
			blob := make([]byte, len(resp))
			copy(blob, resp)
			decomp.PutBuf(resp)
			if _, err := e.n.loadPartitionGID(gid, blob); err == nil {
				e.rebalBytes.Add(int64(len(blob)))
				ok = true
			}
		}
	}
	if !ok && e.n.ec != nil {
		// The old owner is unreachable — dead, or already out of the map.
		// On an ec mount the blob is still recoverable from surviving
		// shards: rebuild it and become the owner. This is the repair
		// pull: it restores an owned full copy without any replica of the
		// lost partition existing anywhere.
		if dp, err := e.n.ecRebuildPart(gid); err == nil {
			if _, err := e.n.loadPartitionGID(gid, dp.blob); err == nil {
				e.n.ec.repairBytes.Add(int64(len(dp.blob)))
				e.rebalBytes.Add(int64(len(dp.blob)))
				ok = true
			}
		}
	}
	// The coordinator's own pulls ack through its mailbox like anyone's:
	// the job advances on the ctrl loop only.
	_ = e.n.comm.Send(e.coordRank, tagCtrl, movedFrame(gid, ok))
}

// moveFinished records one transfer ack; the last one cuts the commit.
// An ack for a gid no longer pending — the watchdog's after the real one,
// or the reverse — is ignored.
func (e *elasticCtrl) moveFinished(gid uint64, ok bool) {
	job := e.coord.active
	if job == nil {
		return
	}
	tr, pending := job.transfers[gid]
	if !pending {
		return
	}
	e.mu.Lock()
	delete(job.transfers, gid)
	e.mu.Unlock()
	if ok {
		job.done = append(job.done, tr)
	} else {
		job.failed = append(job.failed, tr)
	}
	e.rebalPending.Set(int64(len(job.transfers)))
	if len(job.transfers) == 0 {
		e.finishJob(job)
	}
}

// finishJob runs once the active job has no outstanding transfers.
// Failed pulls are re-planned against the refreshed map and
// redispatched — a destination that died mid-pull is out of Alive()
// once marked dead, so the retry targets a live node instead of
// redialing the corpse — up to maxJobAttempts rounds. Then the job
// fails loudly: rebalance.jobs.failed counts it and it commits with
// whatever landed — un-moved partitions keep their old owner, and a
// leaver that still owns data is refused its drain ack (see commitJob)
// so its only copies never leave the cluster.
func (e *elasticCtrl) finishJob(job *rebalanceJob) {
	if len(job.failed) > 0 && job.attempts+1 < maxJobAttempts {
		job.attempts++
		failedSet := make(map[uint64]bool, len(job.failed))
		for _, tr := range job.failed {
			failedSet[tr.gid] = true
		}
		job.failed = nil
		var retry []transfer
		for _, tr := range e.planRebalance(job.leaver) {
			if failedSet[tr.gid] {
				retry = append(retry, tr)
			}
		}
		if len(retry) == 0 {
			// The refreshed plan no longer moves the failed partitions —
			// they stay with their current owner; commit what landed.
			e.commitJob(job)
			return
		}
		e.mu.Lock()
		for _, tr := range retry {
			job.transfers[tr.gid] = tr
		}
		e.mu.Unlock()
		e.rebalPending.Set(int64(len(job.transfers)))
		e.dispatch(job, retry)
		return
	}
	if len(job.failed) > 0 {
		e.jobsFailed.Inc()
		if e.n.events.Enabled() {
			e.n.events.Emitf(obs.EvRebalanceFail, obs.SevError,
				"rebalance exhausted %d attempts with %d transfer(s) failed; committing what landed",
				maxJobAttempts, len(job.failed))
		}
	}
	e.commitJob(job)
}

// commitJob publishes the rebalance: the landed transfers go into the
// registry, the map moves one version on — without the leaver, when this
// is a voluntary leave and nothing in the registry still names it: the
// commit that drains a node is the commit that takes it off the map, so
// no later plan can see an empty member to fill — the moved partitions'
// ownership is rewritten under it, and the commit is applied here and
// sent to every member, the leaver included. Then the next queued job
// starts.
func (e *elasticCtrl) commitJob(job *rebalanceJob) {
	prev := e.coord.cur
	for _, tr := range job.done {
		if rec := e.coord.registry[tr.gid]; rec != nil {
			rec.owner = tr.to
		}
	}
	// A failed pull leaves the leaver holding the only copy of that
	// partition: it stays a serving member, and its verdict says so.
	drained := job.leaveRank >= 0
	for _, rec := range e.coord.registry {
		drained = drained && rec.owner != job.leaver
	}
	cm := prev.Next()
	if drained {
		cm = prev.Without(job.leaver)
	}
	var moved []FileMeta
	for _, tr := range job.done {
		rec := e.coord.registry[tr.gid]
		if rec == nil {
			continue
		}
		for i := range rec.metas {
			rec.metas[i].Owner = int32(tr.to)
			rec.metas[i].MapVersion = cm.Version
		}
		moved = append(moved, rec.metas...)
	}
	e.coord.cur = cm
	e.applyCommit(job.joiner, cm, job.done, moved)
	e.tell(prev, -1, encodeCommit(ctrlCommit, job.joiner, cm, job.done, moved))
	if job.leaveRank >= 0 {
		status := byte(0)
		if drained {
			status = 1
			if e.n.events.Enabled() {
				e.n.events.Emitf(obs.EvMemberLeave, obs.SevInfo,
					"node %v left (map v%d, %d members)", job.leaver, cm.Version, len(cm.Nodes))
			}
		}
		_ = e.n.comm.Send(job.leaveRank, tagCtrl, []byte{ctrlDrained, status})
	}

	e.mu.Lock()
	e.coord.active = nil
	var next *rebalanceJob
	if len(e.coord.queue) > 0 {
		next = e.coord.queue[0]
		e.coord.queue = e.coord.queue[1:]
		e.coord.active = next
	}
	e.mu.Unlock()
	if next != nil {
		e.startJob(next)
	}
}

// applyCommit installs a commit on this member: newer map, rewritten
// metadata records, and — when this node was an old owner — the
// partition drop that completes the handoff. An admission or a death is
// a commit that moves nothing. The map is installed first so a reader
// racing the metadata rewrite fails toward the stale-map retry, not
// toward a dead route. joiner is the node whose join this commits.
func (e *elasticCtrl) applyCommit(joiner member.NodeID, cm *member.ClusterMap, transfers []transfer, metas []FileMeta) {
	installed := e.n.installMap(cm)
	if e.n.events.Enabled() {
		if installed {
			e.n.events.Emitf(obs.EvMapChange, obs.SevInfo,
				"cluster map v%d installed (%d alive, %d partition move(s))",
				cm.Version, len(cm.Alive()), len(transfers))
		}
		if len(transfers) > 0 {
			e.n.events.Emitf(obs.EvRebalanceCommit, obs.SevInfo,
				"rebalance committed under map v%d: %d transfer(s) applied", cm.Version, len(transfers))
		}
	}
	for i := range metas {
		e.n.addMeta(metas[i])
	}
	var takenOver []uint64
	for _, tr := range transfers {
		if tr.from == e.n.selfID {
			e.n.dropPartition(tr.gid)
		}
		if tr.to == e.n.selfID {
			takenOver = append(takenOver, tr.gid)
		}
	}
	if e.n.ec != nil {
		// The moved partitions have live owners again: degraded reads for
		// them end here — drop the reconstructed blobs so subsequent
		// reads route normally and stop counting ec.degraded.reads.
		e.n.ecDropDegraded(transfers)
		// Restore full redundancy under the new map (ecRestore). Async —
		// reads are already healthy, only redundancy is catching up.
		if pushes := e.n.ecRestore(cm, takenOver); len(pushes) > 0 {
			go e.n.ecPushParts(cm, pushes, true)
		}
	}
	if joiner == e.n.selfID {
		select {
		case <-e.joined:
		default:
			close(e.joined)
		}
	}
}

// noteBye records a member's shutdown intent; once every alive member
// has said bye the coordinator acks all of them. Returns true when the
// coordinator itself is done (acks sent).
func (e *elasticCtrl) noteBye(id member.NodeID) bool {
	e.coord.byes[id] = true
	if len(e.coord.byes) < len(e.coord.cur.Alive()) {
		return false
	}
	e.tell(e.coord.cur, -1, []byte{ctrlByeAck})
	return true
}

// sayBye is Close's handshake on an elastic node: a bye/ack exchange
// through the coordinator replaces the static barrier (only members may
// participate, and the world stays up for them). The coordinator's own
// bye goes through its ctrl loop like any other. What ends the wait ends
// the ctrl loop: a member's ack, the coordinator's last collected bye.
func (e *elasticCtrl) sayBye() {
	_ = e.n.comm.Send(e.coordRank, tagCtrl, idFrame(ctrlBye, e.n.selfID))
	select {
	case <-e.done:
	case <-time.After(ctrlWait):
		// A peer died without saying bye; shut down anyway.
	}
}

// LeaveCluster drains this node out of the cluster and shuts it down:
// the coordinator re-places its partitions on the survivors (reads keep
// being served here until the commit), takes it off the map with that
// commit, and the node closes locally. The remaining members keep
// running. If any partition could not be re-homed — this node would
// depart with the only copy — LeaveCluster returns an error and the node
// stays a serving member; the caller may retry.
func (n *Node) LeaveCluster() error {
	if n.ectrl == nil {
		return fmt.Errorf("fanstore: LeaveCluster on a static mount")
	}
	if n.closed.Swap(true) {
		return nil
	}
	if err := n.ectrl.drain(); err != nil {
		n.closed.Store(false) // still a serving member
		return err
	}
	return n.stop()
}

// drain is LeaveCluster's handshake: one request, answered once the
// coordinator has re-homed this node's partitions and committed the map
// without it.
func (e *elasticCtrl) drain() error {
	if e.coord != nil {
		return fmt.Errorf("fanstore: the coordinator cannot leave; Close the cluster instead")
	}
	if err := e.n.comm.Send(e.coordRank, tagCtrl, idFrame(ctrlLeave, e.n.selfID)); err != nil {
		return fmt.Errorf("fanstore: leave: %w", err)
	}
	select {
	case status := <-e.drained:
		if status != 1 {
			// Some partitions could not be re-homed; this node holds the
			// only copy, so it must stay a serving member.
			return fmt.Errorf("fanstore: leave: drain failed; this node still owns partitions")
		}
	case <-time.After(ctrlWait):
		return fmt.Errorf("fanstore: leave: drain did not complete")
	}
	if e.n.events.Enabled() {
		e.n.events.Emitf(obs.EvMemberLeave, obs.SevInfo,
			"member %v drained and left the cluster", e.n.selfID)
	}
	return nil
}

// RebalancePending reports the coordinator's outstanding transfer count
// (0 on other members).
func (n *Node) RebalancePending() int64 {
	if n.ectrl == nil {
		return 0
	}
	return n.ectrl.rebalPending.Value()
}

// RebalancedBytes reports the partition bytes this node has pulled in
// rebalances.
func (n *Node) RebalancedBytes() int64 {
	if n.ectrl == nil {
		return 0
	}
	return n.ectrl.rebalBytes.Value()
}

// MarkDead declares a member failed: the coordinator publishes the node
// as StateDead, which no member with that map calls again (reads of its
// data degrade under ec, or return ErrLost under none), and queues a
// repair that on an ec mount rebuilds its partitions on the survivors
// and replaces the shards it held. The death is handed to the ctrl
// loop, which alone changes the map, and MarkDead returns once the loop
// has published it and queued the repair. Coordinator-only; the failure
// detection itself (missed heartbeats, a scheduler signal) is the
// caller's.
func (n *Node) MarkDead(id member.NodeID) error {
	e := n.ectrl
	if e == nil {
		return fmt.Errorf("fanstore: MarkDead on a static mount")
	}
	if e.coord == nil {
		return fmt.Errorf("fanstore: MarkDead is coordinator-only")
	}
	if id == n.selfID {
		return fmt.Errorf("fanstore: the coordinator cannot mark itself dead")
	}
	e.mu.Lock()
	ack := e.coord.marks[id]
	if ack == nil {
		ack = make(chan struct{})
		e.coord.marks[id] = ack
	}
	e.mu.Unlock()
	if err := n.comm.Send(n.comm.Rank(), tagCtrl, idFrame(ctrlDead, id)); err != nil {
		return err
	}
	select {
	case <-ack:
		return nil
	case <-e.done:
		return ErrUnmounted
	}
}

// FailStop simulates this node crashing, for chaos testing: every
// daemon stops without any leave/bye handshake, so peers' calls to it
// time out exactly as they would against a dead process. The rank's
// goroutines are reaped (the test harness still needs the rank to
// return from mpi.Run), but no cluster-visible goodbye is sent — the
// survivors must detect the death and MarkDead it.
func (n *Node) FailStop() {
	if !n.closed.Swap(true) {
		_ = n.stop()
	}
}

// encodeTable frames what the node id is owed at its admission: its
// identity, the map and the full metadata table (coordinator's view).
func (e *elasticCtrl) encodeTable(id member.NodeID) []byte {
	e.n.mu.RLock()
	metas := make([]FileMeta, len(e.n.objs))
	for i := range e.n.objs {
		metas[i] = *e.n.objs[i].meta
	}
	e.n.mu.RUnlock()
	return encodeCommit(ctrlTable, id, e.coord.cur, nil, metas)
}

// encodeRegister frames a member's partition inventory:
//
//	u8 op | u32 nodeID | u32 nParts | nParts x (u64 gid | u64 size |
//	u32 metaLen | encodeMetas) — per-part metas keep the coordinator's
//	registry able to rewrite ownership at commit time.
func encodeRegister(id member.NodeID, parts []*partRec) []byte {
	out := []byte{ctrlRegister}
	var b [8]byte
	binary.LittleEndian.PutUint32(b[:4], uint32(id))
	out = append(out, b[:4]...)
	binary.LittleEndian.PutUint32(b[:4], uint32(len(parts)))
	out = append(out, b[:4]...)
	for _, rec := range parts {
		binary.LittleEndian.PutUint64(b[:], rec.gid)
		out = append(out, b[:]...)
		binary.LittleEndian.PutUint64(b[:], uint64(rec.size))
		out = append(out, b[:]...)
		enc := encodeMetas(rec.metas)
		binary.LittleEndian.PutUint32(b[:4], uint32(len(enc)))
		out = append(out, b[:4]...)
		out = append(out, enc...)
	}
	return out
}

func decodeRegister(src []byte) ([]*partRec, error) {
	if len(src) < 8 {
		return nil, errors.New("fanstore: register frame truncated")
	}
	id := member.NodeID(int32(binary.LittleEndian.Uint32(src)))
	nParts := int(binary.LittleEndian.Uint32(src[4:]))
	off := 8
	// The declared count is untrusted; refuse what the frame cannot hold.
	if nParts > (len(src)-off)/20 {
		return nil, errors.New("fanstore: register frame truncated")
	}
	recs := make([]*partRec, 0, nParts)
	for i := 0; i < nParts; i++ {
		if off+20 > len(src) {
			return nil, errors.New("fanstore: register frame truncated")
		}
		gid := binary.LittleEndian.Uint64(src[off:])
		size := int64(binary.LittleEndian.Uint64(src[off+8:]))
		ml := int(binary.LittleEndian.Uint32(src[off+16:]))
		off += 20
		if off+ml > len(src) {
			return nil, errors.New("fanstore: register frame truncated")
		}
		metas, err := decodeMetas(src[off : off+ml])
		if err != nil {
			return nil, err
		}
		off += ml
		recs = append(recs, &partRec{gid: gid, size: size, owner: id, metas: metas})
	}
	return recs, nil
}

// encodeCommit frames a commit, and under op ctrlTable the table a rank
// is admitted with — one layout, one decoder:
//
//	u8 op | i32 node | u32 mapLen | map | u32 nTransfers |
//	nTransfers x (u64 gid | u32 from | u32 to) | encodeMetas(moved)
//
// node is the joiner whose rebalance a commit commits (NoNode for any
// other), and in a table the recipient's identity.
func encodeCommit(op byte, node member.NodeID, cm *member.ClusterMap, transfers []transfer, moved []FileMeta) []byte {
	out := idFrame(op, node)
	var b [8]byte
	mapEnc := cm.Encode()
	binary.LittleEndian.PutUint32(b[:4], uint32(len(mapEnc)))
	out = append(out, b[:4]...)
	out = append(out, mapEnc...)
	binary.LittleEndian.PutUint32(b[:4], uint32(len(transfers)))
	out = append(out, b[:4]...)
	for _, tr := range transfers {
		binary.LittleEndian.PutUint64(b[:], tr.gid)
		out = append(out, b[:]...)
		binary.LittleEndian.PutUint32(b[:4], uint32(tr.from))
		out = append(out, b[:4]...)
		binary.LittleEndian.PutUint32(b[:4], uint32(tr.to))
		out = append(out, b[:4]...)
	}
	return append(out, encodeMetas(moved)...)
}

func decodeCommit(src []byte) (member.NodeID, *member.ClusterMap, []transfer, []FileMeta, error) {
	truncated := errors.New("fanstore: commit frame truncated")
	if len(src) < 8 {
		return 0, nil, nil, nil, truncated
	}
	node := member.NodeID(int32(binary.LittleEndian.Uint32(src)))
	ml := int(binary.LittleEndian.Uint32(src[4:]))
	off := 8
	// Refused before anything is sized from it: the map length is a peer's.
	if ml > len(src)-off-4 {
		return 0, nil, nil, nil, truncated
	}
	cm, err := member.DecodeMap(src[off : off+ml])
	if err != nil {
		return 0, nil, nil, nil, err
	}
	off += ml
	nt := int(binary.LittleEndian.Uint32(src[off:]))
	off += 4
	if nt > (len(src)-off)/16 {
		return 0, nil, nil, nil, truncated
	}
	transfers := make([]transfer, 0, nt)
	for i := 0; i < nt; i++ {
		transfers = append(transfers, transfer{
			gid:  binary.LittleEndian.Uint64(src[off:]),
			from: member.NodeID(int32(binary.LittleEndian.Uint32(src[off+8:]))),
			to:   member.NodeID(int32(binary.LittleEndian.Uint32(src[off+12:]))),
		})
		off += 16
	}
	metas, err := decodeMetas(src[off:])
	if err != nil {
		return 0, nil, nil, nil, err
	}
	return node, cm, transfers, metas, nil
}
