package fanstore

import (
	"slices"
	"strings"
)

// object is one file the node can resolve, by its ID (DESIGN.md, "Object
// IDs"): its record, and whether its bytes are on this node — in the
// backend, or in the writes table — the local/remote answer of every
// open and plan entry.
type object struct {
	meta  *FileMeta
	local bool
}

// installLocked enters record m: a path the node knows keeps its ID and
// locality and takes the new record; a new one gets the next ID, past the
// dataset's once the mount has numbered it. Callers hold n.mu for writing.
func (n *Node) installLocked(m FileMeta) {
	m.Path = cleanPath(m.Path)
	n.dirs.add(m.Path, m.Size)
	if id, ok := n.names[m.Path]; ok {
		n.objs[id].meta = &m
		return
	}
	_, local := n.writes[m.Path]
	if !m.Written {
		local = n.backend.Contains(m.Path)
	}
	n.names[m.Path] = uint32(len(n.objs))
	n.objs = append(n.objs, object{meta: &m, local: local})
}

// addMeta inserts one record into the namespace (last writer wins, which
// only matters for the broadcast partition seen via rank 0).
func (n *Node) addMeta(m FileMeta) {
	n.mu.Lock()
	n.installLocked(m)
	n.mu.Unlock()
}

// numberObjects gives the dataset its IDs, the same on every rank: a
// mount calls it once every rank holds the same table, before the node
// serves a read. The records that are not written files take the first
// IDs in path order; written ones, whose IDs are this node's own, follow.
// The cache's tables are sized for them here.
func (n *Node) numberObjects() {
	n.mu.Lock()
	slices.SortFunc(n.objs, func(a, b object) int {
		if a.meta.Written != b.meta.Written {
			if a.meta.Written {
				return 1
			}
			return -1
		}
		return strings.Compare(a.meta.Path, b.meta.Path)
	})
	for id := range n.objs {
		n.names[n.objs[id].meta.Path] = uint32(id)
	}
	count := len(n.objs)
	n.mu.Unlock()
	n.cache.reserve(count)
}

// resolve finds the object of a clean path in this node's table, without
// asking any peer.
func (n *Node) resolve(cp string) (id uint32, o object, ok bool) {
	n.mu.RLock()
	if id, ok = n.names[cp]; ok {
		o = n.objs[id]
	}
	n.mu.RUnlock()
	return id, o, ok
}

// pathOf names object id, for the cache's eviction spans.
func (n *Node) pathOf(id uint32) string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.objs[id].meta.Path
}

// setLocal records that this node's backend now holds (or no longer
// holds) the objects at paths: a partition loaded or dropped after the
// records were installed. Paths with no record yet are skipped;
// installLocked asks the backend when theirs arrive.
func (n *Node) setLocal(paths []string, local bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, p := range paths {
		if id, ok := n.names[p]; ok {
			n.objs[id].local = local
		}
	}
}
