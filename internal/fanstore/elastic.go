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
// (rank 0 runs the coordinator); any other slot can later call
// JoinCluster, which admits it to the map, ships it the metadata table,
// and triggers an online delta rebalance — moving partitions stream to
// the new owner over the ordinary fetch worker pool while every member
// keeps serving reads, and the handoff only commits (map version bump +
// ownership rewrite + old-owner drop) once all transfers have landed.
//
// The control plane is a star on tagCtrl: members talk to the
// coordinator, the coordinator broadcasts commits. Reads never wait on
// it — they run on the fetch plane and recover from the one race the
// scheme allows (routing planned on a map one commit behind) through the
// typed stale-map retry in fetchRemote.

// Control ops, the first byte of every tagCtrl frame.
const (
	ctrlRegister = byte(1)  // member -> coord: partition inventory at mount
	ctrlTable    = byte(2)  // coord -> member: full metadata table
	ctrlJoin     = byte(3)  // joiner -> coord: rebalance me in
	ctrlMove     = byte(4)  // coord -> dest: pull one partition
	ctrlMoved    = byte(5)  // dest -> coord: pull finished (ok or failed)
	ctrlCommit   = byte(6)  // coord -> members: new map + rewritten owners
	ctrlLeave    = byte(7)  // leaver -> coord: drain my partitions
	ctrlDrained  = byte(8)  // coord -> leaver: drain ack, u8 status (1: you own nothing, go)
	ctrlBye      = byte(9)  // member -> coord: done with the namespace
	ctrlByeAck   = byte(10) // coord -> members: everyone said bye, shut down
)

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

// coordState is the coordinator-only rebalance machinery. All fields are
// guarded by elasticCtrl.mu; the ctrl loop is the only long-lived writer,
// but bye/leave bookkeeping crosses goroutines.
type coordState struct {
	registry map[uint64]*partRec
	// One rebalance runs at a time; later joins/leaves queue.
	active *rebalanceJob
	queue  []*rebalanceJob
	byes   map[member.NodeID]bool
}

// maxJobAttempts bounds how many dispatch rounds one rebalance job may
// run (the first round plus re-plans of its failures) before the job
// fails loudly: the failed transfers are dropped, rebalance.jobs.failed
// counts the job, and the partitions keep their current owner.
const maxJobAttempts = 3

// rebalanceJob tracks one in-flight join or leave rebalance.
type rebalanceJob struct {
	transfers map[uint64]transfer // pending pulls, keyed by gid
	done      []transfer          // acked pulls (these commit)
	failed    []transfer          // failed pulls (re-planned against the refreshed map)
	attempts  int                 // dispatch rounds run so far
	leaver    member.NodeID       // NoNode for a join
	leaveRank int
}

// elasticCtrl is a Node's elastic control plane: membership handle, ctrl
// listener, commit signaling, and (on the coordinator) the rebalance
// state machine.
type elasticCtrl struct {
	n    *Node
	mem  *member.Membership
	opts ElasticOptions

	// done is nil until the ctrl loop is started and closed when it
	// returns — on a poison pill, on the coordinator's bye ack (on the
	// coordinator: on the last member's bye), or with the world.
	done chan struct{}

	mu      sync.Mutex
	waiters []*commitWaiter
	coord   *coordState // nil on non-coordinators

	drained chan byte // drain-ack status from the coordinator (1: fully drained)

	rebalBytes   *metrics.Counter
	rebalPending *metrics.Gauge
	jobsFailed   *metrics.Counter
}

type commitWaiter struct {
	minVersion uint64
	ch         chan struct{}
}

func newElasticCtrl(n *Node, opts ElasticOptions) *elasticCtrl {
	e := &elasticCtrl{
		n:            n,
		mem:          n.mem,
		opts:         opts,
		drained:      make(chan byte, 1),
		rebalBytes:   n.reg.Counter("rebalance.bytes.moved"),
		rebalPending: n.reg.Gauge("rebalance.partitions.pending"),
		jobsFailed:   n.reg.Counter("rebalance.jobs.failed"),
	}
	if e.mem.IsCoordinator() {
		e.coord = &coordState{
			registry: make(map[uint64]*partRec),
			byes:     make(map[member.NodeID]bool),
		}
	}
	return e
}

// MountElastic mounts an elastic FanStore over ranks
// 0..InitialMembers-1 of the world; rank 0 runs the coordinator. Unlike
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
	const coordRank = 0
	var mem *member.Membership
	if comm.Rank() == coordRank {
		mem = member.StartCoordinator(comm)
	} else {
		var err error
		mem, err = member.Join(comm, coordRank)
		if err != nil {
			return nil, err
		}
	}
	n, err := newNode(comm, mem, opts.Options)
	if err != nil {
		mem.Close()
		return nil, err
	}
	n.ectrl = newElasticCtrl(n, opts)
	if err := n.ectrl.mount(partitions, members); err != nil {
		_ = n.stop()
		return nil, fmt.Errorf("fanstore: elastic mount: %w", err)
	}
	return n, nil
}

// mount is the elastic mount's load and its exchange through the
// coordinator star; it starts the ctrl loop once the table is in place.
func (e *elasticCtrl) mount(partitions [][]byte, members int) error {
	n, mem, comm := e.n, e.mem, e.n.comm
	// Load this rank's partitions under cluster-unique gids.
	var localParts []*partRec
	gids := make([]uint64, len(partitions))
	for i, blob := range partitions {
		// +1 keeps every gid nonzero, so FileMeta.PartGID == 0 can mean
		// "not in any partition" (written files, static mounts).
		gids[i] = uint64(mem.ID()+1)<<32 | uint64(i)
		metas, err := n.loadPartitionGID(gids[i], blob)
		if err != nil {
			return err
		}
		localParts = append(localParts, &partRec{gid: gids[i], size: int64(len(blob)), owner: mem.ID(), metas: metas})
	}

	var deferred []ctrlFrame
	if mem.IsCoordinator() {
		// Gather the other initial members' inventories, merge, reply
		// with the full table. Frames that are not registrations (an
		// eager joiner racing the mount) are deferred to the ctrl loop.
		e.adopt(localParts)
		seen := 0
		for seen < members-1 {
			data, src, err := comm.Recv(mpi.AnySource, tagCtrl)
			if err != nil {
				return err
			}
			if len(data) == 0 || data[0] != ctrlRegister {
				deferred = append(deferred, ctrlFrame{data: data, src: src})
				continue
			}
			recs, err := decodeRegister(data[1:])
			if err != nil {
				return fmt.Errorf("rank %d registration: %w", src, err)
			}
			e.adopt(recs)
			seen++
		}
		table := e.encodeTable()
		for r := 1; r < members; r++ {
			if err := comm.Send(r, tagCtrl, table); err != nil {
				return err
			}
		}
	} else {
		if err := comm.Send(mem.CoordRank(), tagCtrl, encodeRegister(mem.ID(), localParts)); err != nil {
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
		// map. Members sync their view first — admission broadcasts may
		// still be in flight, but by table time every initial member has
		// registered, so the synced map is complete. Every rank's server
		// has been serving since newNode, so the cross-pushes cannot
		// deadlock.
		if _, err := mem.Sync(); err != nil {
			return err
		}
		if err := n.ecPushParts(n.view.Map(), gids, false); err != nil {
			return fmt.Errorf("shard placement: %w", err)
		}
	}
	n.mapVersion.Set(int64(n.view.Version())) // the admissions since newNode
	return nil
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

// recvTable installs the coordinator's answer to a registration or a
// join announcement: the full metadata table.
func (e *elasticCtrl) recvTable() error {
	data, _, err := e.n.comm.Recv(e.mem.CoordRank(), tagCtrl)
	if err != nil || len(data) == 0 || data[0] != ctrlTable {
		return fmt.Errorf("bad table frame (%v)", err)
	}
	metas, err := decodeMetas(data[1:])
	if err != nil {
		return err
	}
	for i := range metas {
		e.n.addMeta(metas[i])
	}
	return nil
}

// JoinCluster admits this rank to a running elastic cluster: membership
// join, metadata table download, and the triggered delta rebalance. It
// returns once the rebalance commit lands, so the returned node already
// owns its share of the partitions and the map version has advanced. A
// join that fails at any step after admission leaves the map again
// (best-effort: member requests are deadline-bounded, so a dead
// coordinator cannot wedge the exit) — a failed join must leak neither
// goroutines nor a ghost member that future rebalances would target.
func JoinCluster(comm *mpi.Comm, coordRank int, opts ElasticOptions) (*Node, error) {
	mem, err := member.Join(comm, coordRank)
	if err != nil {
		return nil, err
	}
	admitted := mem.View().Version()
	n, err := newNode(comm, mem, opts.Options)
	if err != nil {
		_ = mem.Leave()
		mem.Close() // idempotent when Leave already closed
		return nil, err
	}
	n.ectrl = newElasticCtrl(n, opts)
	if err := n.ectrl.join(admitted); err != nil {
		_ = mem.Leave()
		_ = n.stop()
		return nil, fmt.Errorf("fanstore: join: %w", err)
	}
	return n, nil
}

// join announces this node to the coordinator, which replies with the
// table and then plans the rebalance — move pulls may target this node
// immediately after, which its fetch daemon (serving since newNode) and
// the ctrl loop started here answer. The join rebalance always ends in a
// commit (even a no-move one) whose version is strictly above the
// admission version.
func (e *elasticCtrl) join(admitted uint64) error {
	var req [5]byte
	req[0] = ctrlJoin
	binary.LittleEndian.PutUint32(req[1:], uint32(e.mem.ID()))
	if err := e.n.comm.Send(e.mem.CoordRank(), tagCtrl, req[:]); err != nil {
		return err
	}
	if err := e.recvTable(); err != nil {
		return err
	}
	wait := e.addWaiter(admitted + 1)
	e.start(nil)
	select {
	case <-wait:
		return nil
	case <-time.After(60 * time.Second):
		return fmt.Errorf("rebalance commit did not arrive")
	}
}

// addWaiter registers a channel closed by the first commit at or above
// minVersion (checked against already-current state too).
func (e *elasticCtrl) addWaiter(minVersion uint64) chan struct{} {
	ch := make(chan struct{})
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.n.view.Version() >= minVersion {
		close(ch)
		return ch
	}
	e.waiters = append(e.waiters, &commitWaiter{minVersion: minVersion, ch: ch})
	return ch
}

func (e *elasticCtrl) signalWaiters() {
	v := e.n.view.Version()
	e.mu.Lock()
	kept := e.waiters[:0]
	for _, w := range e.waiters {
		if v >= w.minVersion {
			close(w.ch)
		} else {
			kept = append(kept, w)
		}
	}
	e.waiters = kept
	e.mu.Unlock()
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

// ctrlLoop is the per-node control listener. On the coordinator it is
// also the rebalance state machine: joins and leaves arrive here, move
// acks advance the active job, and the commit is cut here, so every map
// mutation observed by the data plane is totally ordered.
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
func (e *elasticCtrl) handleCtrl(data []byte, src int) bool {
	if len(data) == 0 {
		return true // poison pill (stopLoop)
	}
	switch data[0] {
	case ctrlJoin:
		if e.coord == nil || len(data) < 5 {
			return false
		}
		id := member.NodeID(int32(binary.LittleEndian.Uint32(data[1:])))
		_ = e.n.comm.Send(src, tagCtrl, e.encodeTable())
		e.enqueueJob(&rebalanceJob{leaver: member.NoNode, leaveRank: -1}, id)
	case ctrlLeave:
		if e.coord == nil || len(data) < 5 {
			return false
		}
		id := member.NodeID(int32(binary.LittleEndian.Uint32(data[1:])))
		e.enqueueJob(&rebalanceJob{leaver: id, leaveRank: src}, member.NoNode)
	case ctrlMove:
		if len(data) < 13 {
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
		cm, transfers, metas, err := decodeCommit(data[1:])
		if err == nil {
			e.applyCommit(cm, transfers, metas)
		}
	case ctrlBye:
		if e.coord == nil || len(data) < 5 {
			return false
		}
		id := member.NodeID(int32(binary.LittleEndian.Uint32(data[1:])))
		return e.noteBye(id)
	case ctrlByeAck:
		return true
	case ctrlDrained:
		// Status byte: 1 means every partition left this node. The send
		// is non-blocking so a late ack from a timed-out leave attempt
		// cannot wedge the ctrl loop.
		st := byte(0)
		if len(data) >= 2 {
			st = data[1]
		}
		select {
		case e.drained <- st:
		default:
		}
	}
	return false
}

// enqueueJob starts (or queues) a rebalance. joiner is the node that
// triggered it for a join, NoNode for a leave.
func (e *elasticCtrl) enqueueJob(job *rebalanceJob, joiner member.NodeID) {
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
	e.mu.Lock()
	job.transfers = make(map[uint64]transfer, len(transfers))
	for _, tr := range transfers {
		job.transfers[tr.gid] = tr
	}
	e.rebalPending.Set(int64(len(transfers)))
	e.mu.Unlock()
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
	m := e.n.view.Map()
	for _, tr := range transfers {
		rank, err := m.RankOf(tr.to)
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
// after the pull timeout. moveFinished ignores gids no longer pending,
// so a real ack racing the reap (either order) is counted exactly once;
// the job identity check keeps a stale timer from touching a later job.
func (e *elasticCtrl) reapStalled(job *rebalanceJob, gids []uint64) {
	var stalled []uint64
	e.mu.Lock()
	if e.coord == nil || e.coord.active != job {
		e.mu.Unlock()
		return
	}
	for _, gid := range gids {
		if _, ok := job.transfers[gid]; ok {
			stalled = append(stalled, gid)
		}
	}
	e.mu.Unlock()
	for _, gid := range stalled {
		e.moveFinished(gid, false)
	}
}

// planRebalance computes the transfers for the current membership: a
// minimal-movement delta placement over the registry, excluding leaver
// from the candidate set. Coordinator-only; called from the ctrl loop.
func (e *elasticCtrl) planRebalance(leaver member.NodeID) []transfer {
	e.mu.Lock()
	defer e.mu.Unlock()
	alive := e.n.view.Map().Alive()
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
	frame := make([]byte, 10)
	frame[0] = ctrlMoved
	binary.LittleEndian.PutUint64(frame[1:], gid)
	if ok {
		frame[9] = 1
	}
	if e.mem.IsCoordinator() {
		e.moveFinished(gid, ok)
		return
	}
	_ = e.n.comm.Send(e.mem.CoordRank(), tagCtrl, frame)
}

// moveFinished records one transfer ack; the last one cuts the commit.
func (e *elasticCtrl) moveFinished(gid uint64, ok bool) {
	e.mu.Lock()
	job := e.coord.active
	if job == nil {
		e.mu.Unlock()
		return
	}
	tr, pending := job.transfers[gid]
	if !pending {
		e.mu.Unlock()
		return
	}
	delete(job.transfers, gid)
	if ok {
		job.done = append(job.done, tr)
	} else {
		job.failed = append(job.failed, tr)
	}
	remaining := len(job.transfers)
	// The gauge moves under the same lock as the transfer set, so a late
	// ack can never overwrite the terminal zero with a stale count.
	e.rebalPending.Set(int64(remaining))
	e.mu.Unlock()
	if remaining == 0 {
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
	e.mu.Lock()
	if len(job.failed) > 0 && job.attempts+1 < maxJobAttempts {
		job.attempts++
		failedSet := make(map[uint64]bool, len(job.failed))
		for _, tr := range job.failed {
			failedSet[tr.gid] = true
		}
		job.failed = nil
		e.mu.Unlock()
		// planRebalance locks e.mu itself; it must run unlocked. The job
		// stays active throughout, so no commit can interleave.
		planned := e.planRebalance(job.leaver)
		var retry []transfer
		for _, tr := range planned {
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
		e.rebalPending.Set(int64(len(job.transfers)))
		e.mu.Unlock()
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
	e.mu.Unlock()
	e.commitJob(job)
}

// commitJob publishes the rebalance: bump the map version, rewrite the
// moved partitions' ownership under it, apply locally, broadcast to all
// members, and release the leaver (if any). Then the next queued job
// starts.
func (e *elasticCtrl) commitJob(job *rebalanceJob) {
	cm, err := e.mem.Advance()
	if err != nil {
		return
	}
	e.mu.Lock()
	var moved []FileMeta
	for _, tr := range job.done {
		rec := e.coord.registry[tr.gid]
		if rec == nil {
			continue
		}
		rec.owner = tr.to
		for i := range rec.metas {
			rec.metas[i].Owner = int32(tr.to)
			rec.metas[i].MapVersion = cm.Version
			rec.metas[i].Replicas = nil // replicas are re-announced, not carried
		}
		moved = append(moved, rec.metas...)
	}
	frame := encodeCommit(cm, job.done, moved)
	e.mu.Unlock()

	e.applyCommit(cm, job.done, moved)
	self := e.n.comm.Rank()
	for _, node := range cm.Alive() {
		if node.Rank == self {
			continue
		}
		_ = e.n.comm.Send(node.Rank, tagCtrl, frame)
	}
	if job.leaver != member.NoNode && job.leaveRank >= 0 {
		// The leaver may only shut down once nothing in the registry
		// still names it: a failed pull leaves the leaver holding the
		// only copy of that partition, so the ack carries a status and
		// LeaveCluster surfaces the failure instead of closing the node.
		e.mu.Lock()
		drained := byte(1)
		for _, rec := range e.coord.registry {
			if rec.owner == job.leaver {
				drained = 0
				break
			}
		}
		e.mu.Unlock()
		_ = e.n.comm.Send(job.leaveRank, tagCtrl, []byte{ctrlDrained, drained})
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

// applyCommit installs a rebalance commit on this member: newer map,
// rewritten metadata records, and — when this node was an old owner —
// the partition drop that completes the handoff. The map is installed
// first so a reader racing the metadata rewrite fails toward the
// stale-map retry, not toward a dead route.
func (e *elasticCtrl) applyCommit(cm *member.ClusterMap, transfers []transfer, metas []FileMeta) {
	e.n.view.Update(cm)
	e.n.mapVersion.Set(int64(e.n.view.Version()))
	if e.n.events.Enabled() {
		e.n.events.Emitf(obs.EvMapChange, obs.SevInfo,
			"cluster map v%d installed (%d alive, %d partition move(s))",
			cm.Version, len(cm.Alive()), len(transfers))
		e.n.events.Emitf(obs.EvRebalanceCommit, obs.SevInfo,
			"rebalance committed under map v%d: %d transfer(s) applied", cm.Version, len(transfers))
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
		gids := make([]uint64, len(transfers))
		for i, tr := range transfers {
			gids[i] = tr.gid
		}
		e.n.ecDropDegraded(gids)
		if len(takenOver) > 0 {
			// New owner: re-encode and re-scatter the shards under the
			// post-commit map, restoring full m-loss redundancy (shards
			// previously held by the dead node are regenerated). Async —
			// reads are already healthy, only redundancy is catching up.
			go e.n.ecPushParts(cm, takenOver, true)
		}
	}
	e.signalWaiters()
}

// noteBye records a member's shutdown intent; once every alive member
// has said bye the coordinator acks all of them. Returns true when the
// coordinator itself is done (acks sent).
func (e *elasticCtrl) noteBye(id member.NodeID) bool {
	e.mu.Lock()
	e.coord.byes[id] = true
	alive := e.n.view.Map().Alive()
	all := len(e.coord.byes) >= len(alive)
	e.mu.Unlock()
	if !all {
		return false
	}
	self := e.n.comm.Rank()
	for _, node := range alive {
		if node.Rank == self {
			continue
		}
		_ = e.n.comm.Send(node.Rank, tagCtrl, []byte{ctrlByeAck})
	}
	return true
}

// sayBye is Close's handshake on an elastic node: a bye/ack exchange
// through the coordinator replaces the static barrier (only members may
// participate, and the world stays up for them). The coordinator's own
// bye goes through its ctrl loop like any other. What ends the wait ends
// the ctrl loop: a member's ack, the coordinator's last collected bye.
func (e *elasticCtrl) sayBye() {
	var bye [5]byte
	bye[0] = ctrlBye
	binary.LittleEndian.PutUint32(bye[1:], uint32(e.n.selfID))
	_ = e.n.comm.Send(e.mem.CoordRank(), tagCtrl, bye[:])
	select {
	case <-e.done:
	case <-time.After(60 * time.Second):
		// A peer died without saying bye; shut down anyway.
	}
}

// LeaveCluster drains this node out of the cluster and shuts it down:
// the coordinator re-places its partitions on the survivors (reads keep
// being served here until the commit), then the node leaves the map and
// closes locally. The remaining members keep running. If any partition
// could not be re-homed — this node would depart with the only copy —
// LeaveCluster returns an error and the node stays a serving member;
// the caller may retry.
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

// drain is LeaveCluster's handshake: have the coordinator re-home this
// node's partitions, then leave the map.
func (e *elasticCtrl) drain() error {
	if e.mem.IsCoordinator() {
		return fmt.Errorf("fanstore: the coordinator cannot leave; Close the cluster instead")
	}
	var req [5]byte
	req[0] = ctrlLeave
	binary.LittleEndian.PutUint32(req[1:], uint32(e.n.selfID))
	if err := e.n.comm.Send(e.mem.CoordRank(), tagCtrl, req[:]); err != nil {
		return fmt.Errorf("fanstore: leave: %w", err)
	}
	select {
	case status := <-e.drained:
		if status != 1 {
			// Some partitions could not be re-homed; this node holds the
			// only copy, so it must stay a serving member.
			return fmt.Errorf("fanstore: leave: drain failed; this node still owns partitions")
		}
	case <-time.After(60 * time.Second):
		return fmt.Errorf("fanstore: leave: drain did not complete")
	}
	if err := e.mem.Leave(); err != nil {
		return err
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

// MarkDead declares a member failed: the coordinator publishes the
// node as StateDead (routes to it start erroring toward refresh) and
// queues a repair rebalance that re-homes its partitions onto the
// survivors — on an ec mount by reconstructing them from surviving
// shards, there being no live full copy to pull. Coordinator-only; the
// failure detection itself (missed heartbeats, a scheduler signal) is
// the caller's.
func (n *Node) MarkDead(id member.NodeID) error {
	e := n.ectrl
	if e == nil {
		return fmt.Errorf("fanstore: MarkDead on a static mount")
	}
	if !n.mem.IsCoordinator() {
		return fmt.Errorf("fanstore: MarkDead is coordinator-only")
	}
	if id == n.selfID {
		return fmt.Errorf("fanstore: the coordinator cannot mark itself dead")
	}
	if _, err := n.mem.SetState(id, member.StateDead); err != nil {
		return err
	}
	n.mapVersion.Set(int64(n.view.Version()))
	if n.events.Enabled() {
		n.events.Emitf(obs.EvMemberDead, obs.SevError,
			"member %v marked dead; queuing repair rebalance", id)
	}
	e.enqueueJob(&rebalanceJob{leaver: id, leaveRank: -1}, member.NoNode)
	return nil
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

// encodeTable frames the full metadata table (coordinator's view).
func (e *elasticCtrl) encodeTable() []byte {
	e.n.mu.RLock()
	metas := make([]FileMeta, 0, len(e.n.meta))
	for _, m := range e.n.meta {
		metas = append(metas, *m)
	}
	e.n.mu.RUnlock()
	return append([]byte{ctrlTable}, encodeMetas(metas)...)
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

// encodeCommit frames a rebalance commit:
//
//	u8 op | u32 mapLen | map | u32 nTransfers |
//	nTransfers x (u64 gid | u32 from | u32 to) | encodeMetas(moved)
func encodeCommit(cm *member.ClusterMap, transfers []transfer, moved []FileMeta) []byte {
	out := []byte{ctrlCommit}
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

func decodeCommit(src []byte) (*member.ClusterMap, []transfer, []FileMeta, error) {
	if len(src) < 4 {
		return nil, nil, nil, errors.New("fanstore: commit frame truncated")
	}
	ml := int(binary.LittleEndian.Uint32(src))
	off := 4
	if off+ml+4 > len(src) {
		return nil, nil, nil, errors.New("fanstore: commit frame truncated")
	}
	cm, err := member.DecodeMap(src[off : off+ml])
	if err != nil {
		return nil, nil, nil, err
	}
	off += ml
	nt := int(binary.LittleEndian.Uint32(src[off:]))
	off += 4
	if nt > (len(src)-off)/16 {
		return nil, nil, nil, errors.New("fanstore: commit frame truncated")
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
		return nil, nil, nil, err
	}
	return cm, transfers, metas, nil
}
