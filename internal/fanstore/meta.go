package fanstore

import (
	"encoding/binary"
	"fmt"
	"path"
	"sort"
	"strings"
)

// FileMeta is the in-RAM metadata record for one file in the global
// namespace. After the load-time Allgather every node holds the complete
// table, so stat()/readdir() never touch the network or the shared
// filesystem again (§IV-C1/2).
type FileMeta struct {
	Path         string
	Size         int64 // uncompressed size
	Mode         uint32
	MTime        int64 // Unix nanoseconds
	CRC32        uint32
	CompressorID uint16
	Owner        int32 // node ID holding the compressed bytes
	Written      bool  // produced by the write path, not the packed dataset

	// MapVersion is the cluster-map version the Owner/Replicas assignment
	// was planned under. A reader that resolves Owner against a different
	// map version treats the route as stale and refreshes before failing
	// over (see fetchRemote). Static mounts stamp version 1, the
	// member.StaticMap version, so the check degenerates to a no-op.
	MapVersion uint64

	// PartGID is the cluster-wide id of the partition blob this object
	// lives in (0 on static mounts and for written files, which belong
	// to no packed partition). Erasure-coded mounts key the degraded
	// read path on it: when every whole-object route is gone the reader
	// reconstructs partition PartGID from surviving shards.
	PartGID uint64

	// Replicas lists extra node IDs whose backend also holds the
	// compressed object (ring replication, §V-D). Populated from the
	// replica announcements exchanged during Mount and carried by
	// encodeMetas, so a rebalance commit ships the full routing record —
	// replicas are alternative fetch targets (see fetchRemote's routing).
	Replicas []int32
}

// maxReplicaFan caps the replica IDs carried per record on the wire:
// the count is a single byte, so a longer list is truncated at encode
// time instead of letting byte(len) wrap and desynchronize the frame.
// A rotation set anywhere near 255 alternates is far beyond useful.
const maxReplicaFan = 255

// maxPathLen is the longest path a record can carry: encodeMetas writes
// a path's length as a u16, so Create refuses a longer one rather than
// let the length wrap and a peer decode a record nobody wrote. Packed
// paths are at most 255 bytes.
const maxPathLen = 1<<16 - 1

// encodeMetas serializes a metadata list for the Allgather exchange.
func encodeMetas(metas []FileMeta) []byte {
	size := 4
	for i := range metas {
		size += 2 + len(metas[i].Path) + 8 + 4 + 8 + 4 + 2 + 4 + 1 + 8 + 8 + 1 + 4*minInt(len(metas[i].Replicas), maxReplicaFan)
	}
	out := make([]byte, 0, size)
	var b [8]byte
	binary.LittleEndian.PutUint32(b[:4], uint32(len(metas)))
	out = append(out, b[:4]...)
	for i := range metas {
		m := &metas[i]
		binary.LittleEndian.PutUint16(b[:2], uint16(len(m.Path)))
		out = append(out, b[:2]...)
		out = append(out, m.Path...)
		binary.LittleEndian.PutUint64(b[:], uint64(m.Size))
		out = append(out, b[:]...)
		binary.LittleEndian.PutUint32(b[:4], m.Mode)
		out = append(out, b[:4]...)
		binary.LittleEndian.PutUint64(b[:], uint64(m.MTime))
		out = append(out, b[:]...)
		binary.LittleEndian.PutUint32(b[:4], m.CRC32)
		out = append(out, b[:4]...)
		binary.LittleEndian.PutUint16(b[:2], m.CompressorID)
		out = append(out, b[:2]...)
		binary.LittleEndian.PutUint32(b[:4], uint32(m.Owner))
		out = append(out, b[:4]...)
		if m.Written {
			out = append(out, 1)
		} else {
			out = append(out, 0)
		}
		binary.LittleEndian.PutUint64(b[:], m.MapVersion)
		out = append(out, b[:]...)
		binary.LittleEndian.PutUint64(b[:], m.PartGID)
		out = append(out, b[:]...)
		nr := minInt(len(m.Replicas), maxReplicaFan)
		out = append(out, byte(nr))
		for _, r := range m.Replicas[:nr] {
			binary.LittleEndian.PutUint32(b[:4], uint32(r))
			out = append(out, b[:4]...)
		}
	}
	return out
}

func decodeMetas(src []byte) ([]FileMeta, error) {
	if len(src) < 4 {
		return nil, fmt.Errorf("fanstore: metadata frame truncated")
	}
	n := int(binary.LittleEndian.Uint32(src))
	off := 4
	// The declared count is untrusted; bound the preallocation by what
	// the frame could physically hold.
	const fixed = 2 + 8 + 4 + 8 + 4 + 2 + 4 + 1 + 8 + 8 + 1
	out := make([]FileMeta, 0, minInt(n, (len(src)-off)/fixed))
	for i := 0; i < n; i++ {
		if off+2 > len(src) {
			return nil, fmt.Errorf("fanstore: metadata entry %d truncated", i)
		}
		pl := int(binary.LittleEndian.Uint16(src[off:]))
		off += 2
		if off+pl+fixed-2 > len(src) {
			return nil, fmt.Errorf("fanstore: metadata entry %d truncated", i)
		}
		m := FileMeta{Path: string(src[off : off+pl])}
		off += pl
		m.Size = int64(binary.LittleEndian.Uint64(src[off:]))
		off += 8
		m.Mode = binary.LittleEndian.Uint32(src[off:])
		off += 4
		m.MTime = int64(binary.LittleEndian.Uint64(src[off:]))
		off += 8
		m.CRC32 = binary.LittleEndian.Uint32(src[off:])
		off += 4
		m.CompressorID = binary.LittleEndian.Uint16(src[off:])
		off += 2
		m.Owner = int32(binary.LittleEndian.Uint32(src[off:]))
		off += 4
		m.Written = src[off] == 1
		off++
		m.MapVersion = binary.LittleEndian.Uint64(src[off:])
		off += 8
		m.PartGID = binary.LittleEndian.Uint64(src[off:])
		off += 8
		nr := int(src[off])
		off++
		if off+4*nr > len(src) {
			return nil, fmt.Errorf("fanstore: metadata entry %d truncated", i)
		}
		if nr > 0 {
			m.Replicas = make([]int32, nr)
			for j := 0; j < nr; j++ {
				m.Replicas[j] = int32(binary.LittleEndian.Uint32(src[off:]))
				off += 4
			}
		}
		out = append(out, m)
	}
	return out, nil
}

// encodePaths serializes a clean-path list for the replica-announcement
// Allgather: u32 count, then u16 length + bytes per path.
func encodePaths(paths []string) []byte {
	size := 4
	for _, p := range paths {
		size += 2 + len(p)
	}
	out := make([]byte, 0, size)
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(len(paths)))
	out = append(out, b[:]...)
	for _, p := range paths {
		binary.LittleEndian.PutUint16(b[:2], uint16(len(p)))
		out = append(out, b[:2]...)
		out = append(out, p...)
	}
	return out
}

func decodePaths(src []byte) ([]string, error) {
	if len(src) < 4 {
		return nil, fmt.Errorf("fanstore: path frame truncated")
	}
	n := int(binary.LittleEndian.Uint32(src))
	off := 4
	out := make([]string, 0, minInt(n, (len(src)-off)/2))
	for i := 0; i < n; i++ {
		if off+2 > len(src) {
			return nil, fmt.Errorf("fanstore: path entry %d truncated", i)
		}
		pl := int(binary.LittleEndian.Uint16(src[off:]))
		off += 2
		if off+pl > len(src) {
			return nil, fmt.Errorf("fanstore: path entry %d truncated", i)
		}
		out = append(out, string(src[off:off+pl]))
		off += pl
	}
	return out, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// DirEntry is one readdir() result.
type DirEntry struct {
	Name  string
	IsDir bool
	Size  int64
}

// dirIndex answers readdir() from RAM. Keys are clean directory paths
// ("" is the root); values map child name to entry.
type dirIndex struct {
	dirs map[string]map[string]DirEntry
}

func newDirIndex() *dirIndex {
	return &dirIndex{dirs: map[string]map[string]DirEntry{"": {}}}
}

// add indexes one file path, creating implicit parent directories.
func (d *dirIndex) add(p string, size int64) {
	p = cleanPath(p)
	if p == "" {
		return
	}
	dir, base := path.Split(p)
	dir = strings.TrimSuffix(dir, "/")
	d.ensureDir(dir)
	d.dirs[dir][base] = DirEntry{Name: base, Size: size}
}

// ensureDir makes dir (and its ancestors) known, registering each as a
// directory entry in its parent.
func (d *dirIndex) ensureDir(dir string) {
	if _, ok := d.dirs[dir]; ok {
		return
	}
	d.dirs[dir] = make(map[string]DirEntry)
	if dir == "" {
		return
	}
	parent, base := path.Split(dir)
	parent = strings.TrimSuffix(parent, "/")
	d.ensureDir(parent)
	d.dirs[parent][base] = DirEntry{Name: base, IsDir: true}
}

// list returns the sorted entries of dir, or ok=false if dir is unknown.
func (d *dirIndex) list(dir string) ([]DirEntry, bool) {
	m, ok := d.dirs[cleanPath(dir)]
	if !ok {
		return nil, false
	}
	out := make([]DirEntry, 0, len(m))
	for _, e := range m {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, true
}

// isDir reports whether dir exists in the namespace.
func (d *dirIndex) isDir(dir string) bool {
	_, ok := d.dirs[cleanPath(dir)]
	return ok
}

// cleanPath normalizes a user path: no leading/trailing slashes, "." and
// ".." resolved. The root is "". A path that is clean already (no empty,
// "." or ".." segment), as nearly every open, stat and plan entry's is,
// comes back as it is, without allocating.
func cleanPath(p string) string {
	for seg, i := 0, 0; p != "" && i <= len(p); i++ {
		if i < len(p) && p[i] != '/' {
			continue
		}
		if s := p[seg:i]; s == "" || s == "." || s == ".." {
			return strings.TrimPrefix(path.Clean("/"+p), "/")
		}
		seg = i + 1
	}
	return p
}
