package member

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fanstore/internal/mpi"
	"fanstore/internal/obs"
)

// Membership protocol tags. They live below the fanstore daemon tags
// (1000+) and far below the rpc response range (1<<20+), so all three
// protocols share one communicator.
const (
	tagMemberReq = 900 // member -> coordinator: join/leave/sync requests
	tagMemberAck = 901 // coordinator -> member: request replies
	tagMemberMap = 902 // coordinator -> members: map broadcasts
)

// Request ops (first byte of a tagMemberReq frame).
const (
	opJoin  = byte(1) // body: none; reply: i32 assigned id | map
	opLeave = byte(2) // body: i32 id; reply: map
	opSync  = byte(3) // body: none; reply: map
)

// ackTimeout bounds every member-side wait for a coordinator reply, so
// a dead or wedged coordinator turns Join/Sync/Leave into errors
// instead of hangs.
const ackTimeout = 30 * time.Second

// Coordinator owns the cluster map: it serializes mutations, bumps the
// version on every change, and broadcasts the new map to all alive
// members. One coordinator runs per cluster (on the rank the drivers
// agree on, conventionally rank 0) — the AIStore-style primary proxy
// shape, minus the election, which the roadmap leaves for a later PR.
type Coordinator struct {
	comm *mpi.Comm
	view *View

	mu     sync.Mutex
	cur    *ClusterMap
	nextID NodeID

	wg sync.WaitGroup

	events atomic.Pointer[obs.EventLog] // nil unless the ops plane is enabled
}

// Membership is one node's handle on the elastic cluster: its stable ID,
// the live map view (fed by coordinator broadcasts), and the request
// path back to the coordinator. The coordinator's own Membership answers
// requests locally.
type Membership struct {
	id        NodeID
	comm      *mpi.Comm
	coordRank int
	view      *View
	coord     *Coordinator // non-nil on the coordinator rank

	wg     sync.WaitGroup
	closed sync.Once

	events atomic.Pointer[obs.EventLog] // nil unless the ops plane is enabled
}

// SetEvents attaches an ops-plane event log: the coordinator reports
// joins and leaves as it admits them; a member reports each map
// version it installs from a broadcast. nil (the default) keeps the
// membership protocol event-free at zero cost. The serve loop and the
// listener are already running when a mount attaches its log, so the
// field is atomic.
func (m *Membership) SetEvents(ev *obs.EventLog) {
	m.events.Store(ev)
	if m.coord != nil {
		m.coord.events.Store(ev)
	}
}

// StartCoordinator creates the cluster with this rank as coordinator and
// first member (ID 0, version 1) and starts the request serve loop. The
// returned Membership is the coordinator's own handle; Close it when the
// cluster shuts down.
func StartCoordinator(comm *mpi.Comm) *Membership {
	cur := &ClusterMap{Version: 1, Nodes: []Node{{ID: 0, Rank: comm.Rank(), State: StateAlive}}}
	c := &Coordinator{comm: comm, cur: cur, nextID: 1, view: NewView(cur)}
	c.wg.Add(1)
	go c.serve()
	return &Membership{id: 0, comm: comm, coordRank: comm.Rank(), view: c.view, coord: c}
}

// Join admits this rank to the cluster run by the coordinator rank and
// returns its Membership: assigned NodeID, current map, and a listener
// keeping the view fresh from map broadcasts.
func Join(comm *mpi.Comm, coordRank int) (*Membership, error) {
	if err := comm.Send(coordRank, tagMemberReq, []byte{opJoin}); err != nil {
		return nil, fmt.Errorf("member: join: %w", err)
	}
	resp, _, err := comm.RecvDeadline(coordRank, tagMemberAck, ackTimeout)
	if err != nil {
		return nil, fmt.Errorf("member: join: %w", err)
	}
	if len(resp) < 4 {
		return nil, fmt.Errorf("member: join: short reply")
	}
	id := NodeID(int32(binary.LittleEndian.Uint32(resp)))
	m, err := DecodeMap(resp[4:])
	if err != nil {
		return nil, fmt.Errorf("member: join: %w", err)
	}
	mem := &Membership{id: id, comm: comm, coordRank: coordRank, view: NewView(m)}
	mem.wg.Add(1)
	go mem.listen()
	return mem, nil
}

// listen applies map broadcasts to the view until the world closes or a
// poison pill (a self-addressed empty frame from Close) arrives.
func (m *Membership) listen() {
	defer m.wg.Done()
	for {
		data, _, err := m.comm.Recv(mpi.AnySource, tagMemberMap)
		if err != nil || len(data) == 0 {
			return
		}
		if cm, err := DecodeMap(data); err == nil {
			if ev := m.events.Load(); m.view.Update(cm) && ev.Enabled() {
				ev.Emitf(obs.EvMapChange, obs.SevInfo,
					"cluster map v%d installed from broadcast (%d members)", cm.Version, len(cm.Nodes))
			}
		}
	}
}

// ID returns this node's stable identity.
func (m *Membership) ID() NodeID { return m.id }

// View returns the live map view.
func (m *Membership) View() *View { return m.view }

// CoordRank returns the coordinator's transport rank.
func (m *Membership) CoordRank() int { return m.coordRank }

// IsCoordinator reports whether this membership runs the coordinator.
func (m *Membership) IsCoordinator() bool { return m.coord != nil }

// Sync pulls the coordinator's current map, updates the view, and
// returns it — the refresh a StaleMapError asks for.
func (m *Membership) Sync() (*ClusterMap, error) {
	if m.coord != nil {
		return m.view.Map(), nil
	}
	if err := m.comm.Send(m.coordRank, tagMemberReq, []byte{opSync}); err != nil {
		return nil, fmt.Errorf("member: sync: %w", err)
	}
	resp, _, err := m.comm.RecvDeadline(m.coordRank, tagMemberAck, ackTimeout)
	if err != nil {
		return nil, fmt.Errorf("member: sync: %w", err)
	}
	cm, err := DecodeMap(resp)
	if err != nil {
		return nil, fmt.Errorf("member: sync: %w", err)
	}
	m.view.Update(cm)
	return m.view.Map(), nil
}

// Leave removes this node from the map (coordinator broadcast included)
// and stops the listener. The caller must have drained its data first —
// the map does not move partitions, the store's rebalance does.
func (m *Membership) Leave() error {
	if m.coord != nil {
		return fmt.Errorf("member: the coordinator cannot leave its own cluster")
	}
	var body [5]byte
	body[0] = opLeave
	binary.LittleEndian.PutUint32(body[1:], uint32(m.id))
	if err := m.comm.Send(m.coordRank, tagMemberReq, body[:]); err != nil {
		return fmt.Errorf("member: leave: %w", err)
	}
	resp, _, err := m.comm.RecvDeadline(m.coordRank, tagMemberAck, ackTimeout)
	if err != nil {
		return fmt.Errorf("member: leave: %w", err)
	}
	if cm, err := DecodeMap(resp); err == nil {
		m.view.Update(cm)
	}
	m.Close()
	return nil
}

// Close stops the listener (members) or the serve loop (coordinator).
// Idempotent; safe after a world abort.
func (m *Membership) Close() {
	m.closed.Do(func() {
		if m.coord != nil {
			_ = m.comm.Send(m.comm.Rank(), tagMemberReq, nil)
			m.coord.wg.Wait()
			return
		}
		_ = m.comm.Send(m.comm.Rank(), tagMemberMap, nil)
		m.wg.Wait()
	})
}

// serve is the coordinator's request loop: joins, leaves, and syncs are
// serialized here, so every map mutation is totally ordered and each
// broadcast carries a strictly newer version.
func (c *Coordinator) serve() {
	defer c.wg.Done()
	for {
		data, src, err := c.comm.Recv(mpi.AnySource, tagMemberReq)
		if err != nil || len(data) == 0 {
			return
		}
		switch data[0] {
		case opJoin:
			id, m := c.admit(src)
			if ev := c.events.Load(); ev.Enabled() {
				ev.Emitf(obs.EvMemberJoin, obs.SevInfo,
					"node %v joined at rank %d (map v%d, %d members)", id, src, m.Version, len(m.Nodes))
			}
			reply := make([]byte, 4, 4+12)
			binary.LittleEndian.PutUint32(reply, uint32(id))
			_ = c.comm.Send(src, tagMemberAck, append(reply, m.Encode()...))
			c.broadcast(m, src)
		case opLeave:
			if len(data) < 5 {
				// Malformed: reply anyway (with the unchanged map) so the
				// requester's blocked Recv never wedges on a protocol error.
				_ = c.comm.Send(src, tagMemberAck, c.view.Map().Encode())
				continue
			}
			id := NodeID(int32(binary.LittleEndian.Uint32(data[1:])))
			m := c.remove(id)
			if ev := c.events.Load(); ev.Enabled() {
				ev.Emitf(obs.EvMemberLeave, obs.SevInfo,
					"node %v left (map v%d, %d members)", id, m.Version, len(m.Nodes))
			}
			_ = c.comm.Send(src, tagMemberAck, m.Encode())
			c.broadcast(m, src)
		case opSync:
			_ = c.comm.Send(src, tagMemberAck, c.view.Map().Encode())
		default:
			// Every tagMemberReq gets a tagMemberAck; an unknown op is
			// answered with the current map rather than dropped.
			_ = c.comm.Send(src, tagMemberAck, c.view.Map().Encode())
		}
	}
}

// admit adds a new alive member and publishes the bumped map.
func (c *Coordinator) admit(rank int) (NodeID, *ClusterMap) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.nextID
	c.nextID++
	m := c.cur.Clone()
	m.Version++
	m.Nodes = append(m.Nodes, Node{ID: id, Rank: rank, State: StateAlive})
	m.normalize()
	c.cur = m
	c.view.Update(m)
	return id, m
}

// remove drops a member and publishes the bumped map.
func (c *Coordinator) remove(id NodeID) *ClusterMap {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.cur.Clone()
	m.Version++
	for i, n := range m.Nodes {
		if n.ID == id {
			m.Nodes = append(m.Nodes[:i], m.Nodes[i+1:]...)
			break
		}
	}
	c.cur = m
	c.view.Update(m)
	return m
}

// Advance bumps the map version without changing membership — the
// placement-commit hook: a rebalance publishes its new ownership table
// under the version this returns, so stale readers are detectable by
// version alone. Unlike join/leave mutations the bumped map is NOT
// broadcast here: the caller must deliver it atomically with the
// rewritten ownership records (the store's ctrlCommit frame does).
// A bare broadcast would let a reader observe the new version while
// still routing on old metadata — a version-matched miss the stale-map
// retry could not tell from a genuinely missing object.
// Coordinator-only.
func (m *Membership) Advance() (*ClusterMap, error) {
	if m.coord == nil {
		return nil, fmt.Errorf("member: Advance is coordinator-only")
	}
	c := m.coord
	c.mu.Lock()
	cm := c.cur.Clone()
	cm.Version++
	c.cur = cm
	c.view.Update(cm)
	c.mu.Unlock()
	return cm, nil
}

// SetState publishes a state change for one member (e.g. StateLeaving
// while its partitions drain). Coordinator-only.
func (m *Membership) SetState(id NodeID, s State) (*ClusterMap, error) {
	if m.coord == nil {
		return nil, fmt.Errorf("member: SetState is coordinator-only")
	}
	c := m.coord
	c.mu.Lock()
	cm := c.cur.Clone()
	cm.Version++
	for i := range cm.Nodes {
		if cm.Nodes[i].ID == id {
			cm.Nodes[i].State = s
		}
	}
	c.cur = cm
	c.view.Update(cm)
	c.mu.Unlock()
	c.broadcast(cm, -1)
	return cm, nil
}

// broadcast sends the map to every alive member except the coordinator
// itself and skip (the requester, which got it in its ack). Best-effort:
// an unreachable member learns the version on its next request or from a
// peer's stale-map error.
func (c *Coordinator) broadcast(m *ClusterMap, skipRank int) {
	frame := m.Encode()
	self := c.comm.Rank()
	for _, n := range m.Nodes {
		if n.Rank == self || n.Rank == skipRank || n.State == StateDead {
			continue
		}
		_ = c.comm.Send(n.Rank, tagMemberMap, frame)
	}
}
