package fanstore

import (
	"encoding/binary"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"fanstore/internal/member"
)

// The control-plane decoders that size allocations from a peer's count
// or length: decodeRegister (MountElastic's gather on the coordinator),
// decodeCommit (every table and every commit, on every member's ctrl
// loop, and every opMetaSync answer); member.DecodeMap, which it
// reaches, is fuzzed in its own package. None may panic
// on arbitrary bytes or allocate more than a small multiple of the frame
// — a count the frame cannot hold is refused, not reserved — and a frame
// generated from the input survives encode → decode unchanged.

// ctrlAllocSlack covers the error value and the fuzz worker's own
// traffic: TotalAlloc is process-wide. The defect guarded against
// reserves GiBs.
const ctrlAllocSlack = 1 << 16

// allocated reports the bytes the process allocated while f ran.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// genMetas builds up to n metadata records from the head of q and
// returns what it did not consume.
func genMetas(q []byte, n int) ([]FileMeta, []byte) {
	var metas []FileMeta
	for ; n > 0 && len(q) >= 2; n-- {
		shape, l := q[0], min(int(q[1]%16), len(q)-2)
		m := FileMeta{
			Path:       string(q[2 : 2+l]),
			Size:       int64(shape) << 7,
			Owner:      int32(shape % 5),
			Written:    shape&0x10 != 0,
			MapVersion: uint64(shape) + 1,
			PartGID:    uint64(shape)<<32 | uint64(l),
		}
		if shape&0x20 != 0 {
			m.Replicas = []int32{int32(shape % 3), 7}
		}
		metas, q = append(metas, m), q[2+l:]
	}
	return metas, q
}

// sameMetas compares record lists element-wise, so an empty list matches
// a nil one.
func sameMetas(a, b []FileMeta) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// FuzzDecodeRegister fuzzes the ctrlRegister body decoder.
func FuzzDecodeRegister(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})                  // 4 G parts in an 8-byte frame
	f.Add(append([]byte{1, 0, 0, 0, 2, 0, 0, 0}, make([]byte, 20)...)) // two parts declared, one present
	f.Add([]byte{1, 0, 0})                                             // truncated header
	metas, _ := genMetas([]byte{0x61, 3, 'a', '/', 'b', 0x12, 1, 'c'}, 2)
	f.Add(encodeRegister(3, []*partRec{{gid: 4<<32 | 1, size: 99, metas: metas}, {gid: 4 << 32}})[1:])

	f.Fuzz(func(t *testing.T, body []byte) {
		if got := allocated(func() { _, _ = decodeRegister(body) }); got > uint64(16*len(body)+ctrlAllocSlack) {
			t.Fatalf("%d-byte registration made decodeRegister allocate %d bytes", len(body), got)
		}

		// Generate an inventory from the input: a node id, then per part a
		// gid byte, a size byte, a record count and the records.
		if len(body) < 4 {
			return
		}
		id := member.NodeID(int32(binary.LittleEndian.Uint32(body)))
		var parts []*partRec
		for q := body[4:]; len(q) >= 3; {
			rec := &partRec{gid: uint64(q[0]) + 1, size: int64(q[1]) << 10, owner: id}
			rec.metas, q = genMetas(q[3:], int(q[2]%4))
			parts = append(parts, rec)
		}
		recs, err := decodeRegister(encodeRegister(id, parts)[1:])
		if err != nil || len(recs) != len(parts) {
			t.Fatalf("generated inventory of %d parts came back as %d parts, err %v", len(parts), len(recs), err)
		}
		for i, rec := range recs {
			if w := parts[i]; rec.gid != w.gid || rec.size != w.size || rec.owner != id || !sameMetas(rec.metas, w.metas) {
				t.Fatalf("part %d came back as %+v, want %+v", i, rec, w)
			}
		}
	})
}

// FuzzDecodeCommit fuzzes the decoder of the ctrlCommit and ctrlTable
// body.
func FuzzDecodeCommit(f *testing.F) {
	cm := &member.ClusterMap{Version: 7, Nodes: []member.Node{
		{ID: 0, Rank: 0, State: member.StateAlive}, {ID: 2, Rank: 1, State: member.StateDead}, {ID: 3, Rank: 2, State: member.StateAlive},
	}}
	mapEnc := cm.Encode()
	hdr := binary.LittleEndian.AppendUint32([]byte{3, 0, 0, 0}, uint32(len(mapEnc))) // node 3's join
	hdr = append(hdr, mapEnc...)
	f.Add(append(hdr[:len(hdr):len(hdr)], 0xff, 0xff, 0xff, 0xff)) // 4 G transfers, none present
	f.Add([]byte{3, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f})              // map length past the frame
	f.Add(hdr)                                                     // no transfer count
	metas, _ := genMetas([]byte{0x61, 3, 'a', '/', 'b', 0x12, 1, 'c'}, 2)
	f.Add(encodeCommit(ctrlCommit, 3, cm, []transfer{{gid: 9, from: 2, to: 3}}, metas)[1:])

	f.Fuzz(func(t *testing.T, body []byte) {
		if got := allocated(func() { _, _, _, _, _ = decodeCommit(body) }); got > uint64(16*len(body)+ctrlAllocSlack) {
			t.Fatalf("%d-byte commit made decodeCommit allocate %d bytes", len(body), got)
		}

		// Generate a commit from the input: a version byte, a node count,
		// a transfer count, then one byte per node, three per transfer, and
		// the moved records; the joiner it names is the first byte again,
		// NoNode included.
		if len(body) < 3 {
			return
		}
		gen := &member.ClusterMap{Version: uint64(body[0]) + 1}
		q := body[3:]
		for i := 0; i < int(body[1]%6) && len(q) >= 1; i++ {
			// IDs ascend: DecodeMap keeps Nodes sorted by ID.
			gen.Nodes = append(gen.Nodes, member.Node{ID: member.NodeID(i), Rank: int(q[0] % 8), State: member.State(q[0] % 4)})
			q = q[1:]
		}
		var transfers []transfer
		for i := 0; i < int(body[2]%6) && len(q) >= 3; i++ {
			transfers = append(transfers, transfer{gid: uint64(q[0]) + 1, from: member.NodeID(q[1] % 8), to: member.NodeID(q[2] % 8)})
			q = q[3:]
		}
		moved, _ := genMetas(q, 4)
		joiner := member.NodeID(int32(body[0]%8) - 1)
		gotJoiner, gotMap, gotTransfers, gotMetas, err := decodeCommit(encodeCommit(ctrlCommit, joiner, gen, transfers, moved)[1:])
		if err != nil || gotJoiner != joiner || gotMap.Version != gen.Version || len(gotMap.Nodes) != len(gen.Nodes) ||
			len(gotTransfers) != len(transfers) || !sameMetas(gotMetas, moved) {
			t.Fatalf("generated commit (v%d, %d nodes, %d transfers, %d records) came back %+v %v %d records, err %v",
				gen.Version, len(gen.Nodes), len(transfers), len(moved), gotMap, gotTransfers, len(gotMetas), err)
		}
		for i, n := range gotMap.Nodes {
			if n != gen.Nodes[i] {
				t.Fatalf("node %d came back %+v, want %+v", i, n, gen.Nodes[i])
			}
		}
		for i, tr := range gotTransfers {
			if tr != transfers[i] {
				t.Fatalf("transfer %d came back %+v, want %+v", i, tr, transfers[i])
			}
		}
	})
}

// FuzzDecodeMetaSync fuzzes the decoding of the opMetaSync answer — the
// commit layout with no node and no transfers — against the handler that
// encodes it.
func FuzzDecodeMetaSync(f *testing.F) {
	noNode := []byte{0xff, 0xff, 0xff, 0xff}
	f.Add(append(noNode, 0xff, 0xff, 0xff, 0x7f))                                                // map length past the frame
	f.Add(append(noNode, 12, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff))                       // map declares 4 G nodes... in two bytes
	f.Add(append(noNode, 12, 0))                                                                 // truncated length
	f.Add(encodeCommit(opMetaSync, member.NoNode, &member.ClusterMap{Version: 3}, nil, nil)[1:]) // an empty table's answer

	f.Fuzz(func(t *testing.T, body []byte) {
		if got := allocated(func() { _, _, _, _, _ = decodeCommit(body) }); got > uint64(16*len(body)+ctrlAllocSlack) {
			t.Fatalf("%d-byte answer made decodeCommit allocate %d bytes", len(body), got)
		}

		// Generate a coordinator from the input — a version byte, a node
		// count, one byte per node, then at most one record — and ask it
		// for that record's path.
		if len(body) < 2 {
			return
		}
		gen := &member.ClusterMap{Version: uint64(body[0]) + 1}
		q := body[2:]
		for i := 0; i < int(body[1]%6) && len(q) >= 1; i, q = i+1, q[1:] {
			gen.Nodes = append(gen.Nodes, member.Node{ID: member.NodeID(i), Rank: int(q[0] % 8), State: member.State(q[0] % 4)})
		}
		recs, _ := genMetas(q, 1)
		n := &Node{view: member.NewView(gen), names: map[string]uint32{}}
		path := "absent"
		for i := range recs {
			path = recs[i].Path
			n.names[cleanPath(path)] = uint32(len(n.objs))
			n.objs = append(n.objs, object{meta: &recs[i]})
		}
		resp, err := n.handleMetaSync([]byte(path))
		if err != nil || len(resp) == 0 || resp[0] != opMetaSync {
			t.Fatalf("meta sync answer %x, err %v", resp, err)
		}
		gotNode, gotMap, gotTransfers, gotMetas, err := decodeCommit(resp[1:])
		if err != nil || gotNode != member.NoNode || gotMap.Version != gen.Version || !slices.Equal(gotMap.Nodes, gen.Nodes) ||
			len(gotTransfers) != 0 || !sameMetas(gotMetas, recs) {
			t.Fatalf("meta sync answer for map %+v and %d record(s) came back node %d, %+v, %d transfer(s), %d record(s), err %v",
				gen, len(recs), gotNode, gotMap, len(gotTransfers), len(gotMetas), err)
		}
	})
}
