// Package member is the data of an elastic cluster and its pure
// transitions: a monotonically versioned ClusterMap that decouples
// stable node identities from transport ranks, so nodes can join and
// leave at runtime while every peer keeps resolving routes from a local,
// RAM-resident map — the same property the paper's Allgather'd metadata
// table provides for file metadata (§IV-C1), extended to membership.
//
// The map only ever moves forward: every transition (Next, WithNode,
// Without, WithState) returns a new map one version on and leaves the
// published one untouched. Nothing here sends, receives or runs: the
// protocol that decides and distributes the transitions is
// internal/fanstore/elastic.go's control stream. A peer observing a
// version disagreement surfaces it as a typed, retryable StaleMapError;
// the caller refreshes its map and retries instead of failing or burning
// a failover.
package member

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
)

// NodeID is a stable cluster-wide node identity. Unlike a rank it never
// changes while the node is a member, and it is never reused within one
// cluster's lifetime, so metadata stamped with an owner NodeID stays
// unambiguous across joins and leaves.
type NodeID int32

// NoNode is the zero routing target (e.g. an unplaced partition).
const NoNode NodeID = -1

// State is a node's lifecycle position in the map.
type State uint8

// The values are the wire encoding. A joiner is on no map before it holds
// the table and a leaver is taken off by its drain's commit, so there is
// no state between the two.
const (
	// StateAlive marks a member: it serves its partitions and
	// participates in placement.
	StateAlive State = 1
	// StateDead marks a member that stopped responding; routes to it
	// resolve as stale so callers fail over or refresh.
	StateDead State = 3
)

func (s State) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateDead:
		return "dead"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Node is one member of the cluster map.
type Node struct {
	ID    NodeID
	Rank  int // transport address (the slot of the world the node runs at)
	State State
}

// ClusterMap is the versioned membership view. It is immutable once
// published: a transition returns a new map, so readers holding a
// *ClusterMap never observe a torn update.
type ClusterMap struct {
	Version uint64
	Nodes   []Node // sorted by ID
}

// ErrStaleMap is the target StaleMapError matches with errors.Is.
var ErrStaleMap = errors.New("member: stale cluster map")

// StaleMapError reports a cluster-map version disagreement: the caller
// routed (or a peer answered) under a map version that no longer reflects
// the cluster. It is retryable by design — refresh the map and redo the
// route resolution.
type StaleMapError struct {
	Have uint64 // the version the failing side held
	Want uint64 // the version the other side held (0 when unknown)
}

// Error renders the version disagreement.
func (e *StaleMapError) Error() string {
	if e.Want == 0 {
		return fmt.Sprintf("member: stale cluster map (have v%d)", e.Have)
	}
	return fmt.Sprintf("member: stale cluster map (have v%d, peer at v%d)", e.Have, e.Want)
}

// Is makes errors.Is(err, ErrStaleMap) match.
func (e *StaleMapError) Is(target error) bool { return target == ErrStaleMap }

// Retryable marks the error as safe to retry after a map refresh.
func (e *StaleMapError) Retryable() bool { return true }

// Lookup returns the node with the given ID.
func (m *ClusterMap) Lookup(id NodeID) (Node, bool) {
	i := sort.Search(len(m.Nodes), func(i int) bool { return m.Nodes[i].ID >= id })
	if i < len(m.Nodes) && m.Nodes[i].ID == id {
		return m.Nodes[i], true
	}
	return Node{}, false
}

// RankOf resolves a node ID to its transport rank. Unknown or dead nodes
// resolve to a StaleMapError: either the caller's map is behind (the node
// joined since) or ahead of its metadata (the node left since) — both are
// fixed by a refresh, not a retry against the same route.
func (m *ClusterMap) RankOf(id NodeID) (int, error) {
	n, ok := m.Lookup(id)
	if !ok || n.State == StateDead {
		return -1, &StaleMapError{Have: m.Version}
	}
	return n.Rank, nil
}

// Alive returns the members that serve data.
func (m *ClusterMap) Alive() []Node {
	out := make([]Node, 0, len(m.Nodes))
	for _, n := range m.Nodes {
		if n.State == StateAlive {
			out = append(out, n)
		}
	}
	return out
}

// Clone returns a deep copy ready for mutation.
func (m *ClusterMap) Clone() *ClusterMap {
	return &ClusterMap{Version: m.Version, Nodes: append([]Node(nil), m.Nodes...)}
}

// normalize keeps Nodes sorted by ID (the Lookup invariant).
func (m *ClusterMap) normalize() {
	sort.Slice(m.Nodes, func(i, j int) bool { return m.Nodes[i].ID < m.Nodes[j].ID })
}

// Next returns the map one version on with the same members: what a
// placement commit publishes, so stale readers are detectable by version
// alone.
func (m *ClusterMap) Next() *ClusterMap {
	next := m.Clone()
	next.Version++
	return next
}

// WithNode returns the next map with n admitted.
func (m *ClusterMap) WithNode(n Node) *ClusterMap {
	next := m.Next()
	next.Nodes = append(next.Nodes, n)
	next.normalize()
	return next
}

// Without returns the next map with the node id removed.
func (m *ClusterMap) Without(id NodeID) *ClusterMap {
	next := &ClusterMap{Version: m.Version + 1, Nodes: make([]Node, 0, len(m.Nodes))}
	for _, n := range m.Nodes {
		if n.ID != id {
			next.Nodes = append(next.Nodes, n)
		}
	}
	return next
}

// WithState returns the next map with the node id in state s.
func (m *ClusterMap) WithState(id NodeID, s State) *ClusterMap {
	next := m.Next()
	for i := range next.Nodes {
		if next.Nodes[i].ID == id {
			next.Nodes[i].State = s
		}
	}
	return next
}

// Encode serializes the map for the wire:
//
//	u64 version | u32 count | count x (i32 id | u32 rank | u8 state)
func (m *ClusterMap) Encode() []byte {
	out := make([]byte, 0, 12+9*len(m.Nodes))
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], m.Version)
	out = append(out, b[:]...)
	binary.LittleEndian.PutUint32(b[:4], uint32(len(m.Nodes)))
	out = append(out, b[:4]...)
	for _, n := range m.Nodes {
		binary.LittleEndian.PutUint32(b[:4], uint32(n.ID))
		out = append(out, b[:4]...)
		binary.LittleEndian.PutUint32(b[:4], uint32(n.Rank))
		out = append(out, b[:4]...)
		out = append(out, byte(n.State))
	}
	return out
}

// DecodeMap parses an encoded cluster map.
func DecodeMap(src []byte) (*ClusterMap, error) {
	if len(src) < 12 {
		return nil, fmt.Errorf("member: map frame truncated")
	}
	m := &ClusterMap{Version: binary.LittleEndian.Uint64(src)}
	n := int(binary.LittleEndian.Uint32(src[8:]))
	off := 12
	if n > (len(src)-off)/9 {
		return nil, fmt.Errorf("member: map frame declares %d nodes", n)
	}
	m.Nodes = make([]Node, 0, n)
	for i := 0; i < n; i++ {
		m.Nodes = append(m.Nodes, Node{
			ID:    NodeID(int32(binary.LittleEndian.Uint32(src[off:]))),
			Rank:  int(binary.LittleEndian.Uint32(src[off+4:])),
			State: State(src[off+8]),
		})
		off += 9
	}
	m.normalize()
	return m, nil
}

// StaticMap builds the fixed-world map: NodeID i is rank i, all alive,
// version 1. It is what a classic collective Mount runs under — every
// elastic code path degenerates to today's behaviour on it.
func StaticMap(size int) *ClusterMap {
	m := &ClusterMap{Version: 1, Nodes: make([]Node, size)}
	for i := range m.Nodes {
		m.Nodes[i] = Node{ID: NodeID(i), Rank: i, State: StateAlive}
	}
	return m
}

// View is a node's atomically swappable handle on the current map.
// Readers load the pointer once per operation and route consistently
// against that version; Update only ever installs newer maps, so a late
// or duplicated delivery is harmless.
type View struct {
	cur atomic.Pointer[ClusterMap]
}

// NewView starts a view at the given map.
func NewView(m *ClusterMap) *View {
	v := &View{}
	v.cur.Store(m)
	return v
}

// Map returns the current map (never nil).
func (v *View) Map() *ClusterMap { return v.cur.Load() }

// Version returns the current map version.
func (v *View) Version() uint64 { return v.cur.Load().Version }

// Update installs m if it is newer than the current map, reporting
// whether it was installed. Concurrency-safe; monotonic by construction.
func (v *View) Update(m *ClusterMap) bool {
	for {
		cur := v.cur.Load()
		if m.Version <= cur.Version {
			return false
		}
		if v.cur.CompareAndSwap(cur, m) {
			return true
		}
	}
}

// Resolve maps a node ID to its transport rank under the current map.
func (v *View) Resolve(id NodeID) (int, error) { return v.Map().RankOf(id) }
