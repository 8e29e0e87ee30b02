package fanstore

import (
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"

	"fanstore/internal/dataset"
	"fanstore/internal/member"
)

// FuzzDecodeFetchRequest feeds the two object-fetch decoders arbitrary
// peer bytes — the opFetch body through decodeFetch and its handler, the
// opFetchRange body through its handler — against a node that holds a
// layered partition and a written file. Neither may panic; decodeFetch
// may not allocate more than a small multiple of the input; and a
// request generated from the input survives encodeFetch → decodeFetch
// unchanged.
func FuzzDecodeFetchRequest(f *testing.F) {
	// TotalAlloc is process-wide: the slack covers the error value and the
	// fuzz worker's own traffic. The defect guarded against asks for GiBs.
	const allocSlack = 1 << 16
	bundle, _ := buildLayeredBundle(f, dataset.EM, 2, 1, 2<<10, 3)
	n := &Node{
		backend: NewRAMBackend(),
		view:    member.NewView(member.StaticMap(1)),
		writes:  map[string][]byte{"out/written": []byte("sealed output")},
	}
	if _, err := n.loadPartition(bundle.Scatter[0]); err != nil {
		f.Fatal(err)
	}
	held := ownedPaths(f, bundle.Scatter[0])[0]

	version := make([]byte, 8)
	f.Add(false, append(version, 0xff, 0xff, 0xff, 0x0f)) // count asks for 4 GiB of keys
	f.Add(false, append(version, 0xff, 0xff, 0xff, 0xff)) // ... for 64 GiB
	f.Add(false, []byte{1, 0, 0})                         // truncated header
	f.Add(false, append(version, 0, 0, 0, 0))             // zero-count batch
	f.Add(false, encodeFetch(9, []string{held, "missing", "out/written"}, []uint8{1, FidelityFull, 2})[1:])
	overflow := binary.LittleEndian.AppendUint64(nil, ^uint64(0)-3) // off+len wraps past u64
	overflow = binary.LittleEndian.AppendUint32(overflow, 8)
	f.Add(true, append(overflow, held...))
	f.Add(true, append(make([]byte, 12), held...)) // empty range of a held object
	f.Add(true, []byte{0, 0, 0, 0})                // truncated range header

	f.Fuzz(func(t *testing.T, rangeOp bool, body []byte) {
		if rangeOp {
			_, _ = n.handleFetchRange(body)
			return
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ver, keys, levels, err := decodeFetch(body)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > uint64(16*len(body)+allocSlack) {
			t.Fatalf("%d-byte request made decodeFetch allocate %d bytes", len(body), got)
		}
		if err == nil {
			if back := encodeFetch(ver, keys, levels)[1:]; !reflect.DeepEqual(back, body) {
				t.Fatalf("request %x decoded to v%d %q %v, which encodes as %x", body, ver, keys, levels, back)
			}
		}
		_, _ = n.handleFetchObjects(body)

		// Generate a request from the input: 8 version bytes, then level
		// byte, length byte, key bytes per key.
		if len(body) < 8 {
			return
		}
		ver = binary.LittleEndian.Uint64(body)
		keys, levels = []string{}, []uint8{}
		for q := body[8:]; len(q) >= 2; {
			l := min(int(q[1]), len(q)-2)
			keys, levels = append(keys, string(q[2:2+l])), append(levels, q[0])
			q = q[2+l:]
		}
		gotVer, gotKeys, gotLevels, err := decodeFetch(encodeFetch(ver, keys, levels)[1:])
		if err != nil || gotVer != ver || !reflect.DeepEqual(gotKeys, keys) || !reflect.DeepEqual(gotLevels, levels) {
			t.Fatalf("generated request v%d %q %v came back v%d %q %v, err %v", ver, keys, levels, gotVer, gotKeys, gotLevels, err)
		}
	})
}
