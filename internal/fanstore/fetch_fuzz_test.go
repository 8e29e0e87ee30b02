package fanstore

import (
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"

	"fanstore/internal/dataset"
	"fanstore/internal/member"
	"fanstore/internal/rpc"
)

// FuzzDecodeFetchRequest feeds the object-fetch decoder arbitrary peer
// bytes — the opFetch body through decodeFetch and its handler — against
// a node that holds a partition and a written file. Neither may panic;
// decodeFetch may not allocate more than a small multiple of the input;
// and a request generated from the input survives encodeFetch →
// decodeFetch unchanged.
func FuzzDecodeFetchRequest(f *testing.F) {
	// TotalAlloc is process-wide: the slack covers the error value and the
	// fuzz worker's own traffic. The defect guarded against asks for GiBs.
	const allocSlack = 1 << 16
	bundle, _ := buildBundle(f, dataset.EM, 2, 1, 2<<10, nil)
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
	f.Add(append(version, 0xff, 0xff, 0xff, 0x0f)) // count asks for 4 GiB of keys
	f.Add(append(version, 0xff, 0xff, 0xff, 0xff)) // ... for 64 GiB
	f.Add([]byte{1, 0, 0})                         // truncated header
	f.Add(append(version, 0, 0, 0, 0))             // zero-count batch
	f.Add(encodeFetch(9, []string{held, "missing", "out/written"})[1:])
	f.Add(append(version, 1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff)) // a key longer than the frame
	f.Add(append(encodeFetch(0, []string{held})[1:], 0))       // a byte past the last key
	f.Add(encodeFetch(0, []string{held})[1:])                  // the request a demand open sends

	f.Fuzz(func(t *testing.T, body []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ver, keys, err := decodeFetch(body)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > uint64(16*len(body)+allocSlack) {
			t.Fatalf("%d-byte request made decodeFetch allocate %d bytes", len(body), got)
		}
		if err == nil {
			if back := encodeFetch(ver, keys)[1:]; !reflect.DeepEqual(back, body) {
				t.Fatalf("request %x decoded to v%d %q, which encodes as %x", body, ver, keys, back)
			}
		}
		_ = n.handleFetchObjects(body, new(rpc.Reply))

		// Generate a request from the input: 8 version bytes, then length
		// byte and key bytes per key.
		if len(body) < 8 {
			return
		}
		ver = binary.LittleEndian.Uint64(body)
		keys = []string{}
		for q := body[8:]; len(q) >= 1; {
			l := min(int(q[0]), len(q)-1)
			keys = append(keys, string(q[1:1+l]))
			q = q[1+l:]
		}
		gotVer, gotKeys, err := decodeFetch(encodeFetch(ver, keys)[1:])
		if err != nil || gotVer != ver || !reflect.DeepEqual(gotKeys, keys) {
			t.Fatalf("generated request v%d %q came back v%d %q, err %v", ver, keys, gotVer, gotKeys, err)
		}
	})
}
