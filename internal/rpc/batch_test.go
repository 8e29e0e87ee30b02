package rpc

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"fanstore/internal/mpi"
)

// encodeItems frames items the way a handler does: one BeginItem /
// payload / EndItem per item into a single buffer.
func encodeItems(items []Item) []byte {
	out := BeginItems(nil, len(items))
	for _, it := range items {
		out = BeginItem(out, it.Status)
		start := len(out)
		out = append(out, it.Payload...)
		EndItem(out, start)
	}
	return out
}

func TestBatchItemFrameRoundTrip(t *testing.T) {
	items := []Item{
		{Status: ItemOK, Payload: []byte("compressed bytes")},
		{Status: ItemNotFound},
		{Status: ItemError, Payload: []byte("spill read failed")},
		{Status: ItemOK, Payload: nil},
	}
	got, err := DecodeItems(encodeItems(items))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(items) {
		t.Fatalf("decoded %d items, want %d", len(got), len(items))
	}
	for i := range items {
		if got[i].Status != items[i].Status {
			t.Fatalf("item %d: status %d != %d", i, got[i].Status, items[i].Status)
		}
		if !bytes.Equal(got[i].Payload, items[i].Payload) {
			t.Fatalf("item %d: payload mismatch", i)
		}
	}
}

func TestBatchFrameMalformed(t *testing.T) {
	if _, err := DecodeKeys(nil); err == nil {
		t.Fatal("nil key frame decoded")
	}
	if _, err := DecodeKeys([]byte{9, 0, 0, 0}); err == nil {
		t.Fatal("truncated key frame decoded")
	}
	if _, err := DecodeKeys(append(AppendKeys(nil, []string{"a"}), 0xFF)); err == nil {
		t.Fatal("trailing bytes accepted in key frame")
	}
	if _, err := DecodeItems([]byte{1, 0}); err == nil {
		t.Fatal("truncated item frame decoded")
	}
	if _, err := DecodeItems([]byte{1, 0, 0, 0, ItemOK, 8, 0, 0, 0, 'x'}); err == nil {
		t.Fatal("item with short payload decoded")
	}
	if _, err := DecodeItems(append(encodeItems([]Item{{Status: ItemOK}}), 0)); err == nil {
		t.Fatal("trailing bytes accepted in item frame")
	}
}

// TestBatchedCallPartialMiss drives a batched frame through a real
// client/server pair: the handler answers per key with OK or not-found,
// and the partial miss comes back as an item status instead of failing
// the call.
func TestBatchedCallPartialMiss(t *testing.T) {
	objects := map[string]string{"a": "alpha", "c": "gamma"}
	err := mpi.Run(2, func(c *mpi.Comm) error {
		if c.Rank() == 1 {
			s := serveOn(c, func(_ int, req []byte, r *Reply) error {
				keys, err := DecodeKeys(req)
				if err != nil {
					return err
				}
				items := make([]Item, len(keys))
				for i, k := range keys {
					if v, ok := objects[k]; ok {
						items[i] = Item{Status: ItemOK, Payload: []byte(v)}
					} else {
						items[i] = Item{Status: ItemNotFound}
					}
				}
				r.Lend(encodeItems(items))
				return nil
			}, ServerOptions{})
			if err := c.Barrier(); err != nil {
				return err
			}
			s.Stop()
			return nil
		}
		cl := NewClient(c, 500, 1<<20, ClientOptions{})
		resp, err := cl.Call(1, AppendKeys(nil, []string{"a", "b", "c"}))
		if err != nil {
			return err
		}
		items, err := DecodeItems(resp)
		if err != nil {
			return err
		}
		if len(items) != 3 {
			t.Fatalf("got %d items", len(items))
		}
		if items[0].Status != ItemOK || string(items[0].Payload) != "alpha" {
			t.Fatalf("item 0: %+v", items[0])
		}
		if items[1].Status != ItemNotFound {
			t.Fatalf("item 1 (the miss): status %d", items[1].Status)
		}
		if items[2].Status != ItemOK || string(items[2].Payload) != "gamma" {
			t.Fatalf("item 2: %+v", items[2])
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestKeyFrameRoundTrip(t *testing.T) {
	keys := []string{"train/a", "train/b", "", "train/long/path/c"}
	p := AppendKeys(nil, keys)
	if len(p) != KeysSize(keys) {
		t.Fatalf("KeysSize %d, frame is %d bytes", KeysSize(keys), len(p))
	}
	gotKeys, err := DecodeKeys(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotKeys, keys) {
		t.Fatalf("round trip: %v", gotKeys)
	}

	// Degenerate key sets: no keys at all, empty keys, one key.
	for _, keys := range [][]string{nil, {}, {""}, {"a"}} {
		got, err := DecodeKeys(AppendKeys(nil, keys))
		if err != nil {
			t.Fatalf("%v: %v", keys, err)
		}
		if len(got) != len(keys) {
			t.Fatalf("%v: decoded %d keys", keys, len(got))
		}
		for i := range keys {
			if got[i] != keys[i] {
				t.Fatalf("key %d: %q != %q", i, got[i], keys[i])
			}
		}
	}

	for _, bad := range [][]byte{nil, {1}, {1, 0, 0, 0, 2}, append(AppendKeys(nil, keys), 9)} {
		if _, err := DecodeKeys(bad); err == nil {
			t.Fatalf("malformed frame %v accepted", bad)
		}
	}
}

// hugeCountFrames are the four-byte bodies that made the decoders
// allocate 4 GiB and 64 GiB for entries that were never there: the count
// used to size a slice before any length check ran.
var hugeCountFrames = [][]byte{{0xff, 0xff, 0xff, 0x0f}, {0xff, 0xff, 0xff, 0xff}}

// allocSlack is what an allocation bound allows on top of its multiple
// of the input: TotalAlloc is process-wide, so it also sees the error
// value and whatever the test harness allocates meanwhile (a fuzz worker
// talks to its coordinator). The defect it guards against asks for GiBs.
const allocSlack = 1 << 16

// allocatedBy reports the heap bytes the process allocates across one
// call of f.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodeCountBoundedByFrame is the regression test for a peer frame
// whose declared count exceeds what its bytes can hold: both decoders
// must reject it as truncated without allocating for the declared count.
func TestDecodeCountBoundedByFrame(t *testing.T) {
	for _, frame := range hugeCountFrames {
		var kerr, ierr error
		got := allocatedBy(func() {
			_, kerr = DecodeKeys(frame)
			_, ierr = DecodeItems(frame)
		})
		if kerr == nil || ierr == nil {
			t.Fatalf("frame %x decoded: keys err %v, items err %v", frame, kerr, ierr)
		}
		if got > allocSlack {
			t.Fatalf("frame %x: decoders allocated %d bytes", frame, got)
		}
	}
}

// FuzzDecodeItems feeds DecodeItems arbitrary peer bytes — it must
// return or error without panicking, and never allocate more than a
// small multiple of the input — and checks that whatever decodes is the
// frame's one reading: re-encoding the items gives the input back, and
// items generated from the input survive encode → decode unchanged.
func FuzzDecodeItems(f *testing.F) {
	for _, frame := range hugeCountFrames {
		f.Add(frame)
	}
	f.Add([]byte{1, 0})                                       // truncated count
	f.Add([]byte{0, 0, 0, 0})                                 // zero-count batch
	f.Add([]byte{1, 0, 0, 0, ItemOK, 8, 0, 0, 0, 'x'})        // payload shorter than declared
	f.Add([]byte{1, 0, 0, 0, ItemOK, 0xff, 0xff, 0xff, 0xff}) // 4 GiB payload declared
	f.Add(encodeItems([]Item{{Status: ItemOK, Payload: []byte("object")}, {Status: ItemStale}}))
	f.Fuzz(func(t *testing.T, p []byte) {
		var items []Item
		var err error
		if got := allocatedBy(func() { items, err = DecodeItems(p) }); got > uint64(16*len(p)+allocSlack) {
			t.Fatalf("%d-byte frame made DecodeItems allocate %d bytes", len(p), got)
		}
		if err == nil && !bytes.Equal(encodeItems(items), p) {
			t.Fatalf("frame %x decoded to %+v, which encodes differently", p, items)
		}
		// Generate items from the input: status byte, length byte, payload.
		var gen []Item
		for q := p; len(q) >= 2; {
			l := min(int(q[1]), len(q)-2)
			gen = append(gen, Item{Status: q[0], Payload: q[2 : 2+l]})
			q = q[2+l:]
		}
		back, err := DecodeItems(encodeItems(gen))
		if err != nil || len(back) != len(gen) {
			t.Fatalf("generated items %+v: decoded %d, err %v", gen, len(back), err)
		}
		for i := range gen {
			if back[i].Status != gen[i].Status || !bytes.Equal(back[i].Payload, gen[i].Payload) {
				t.Fatalf("generated item %d: %+v != %+v", i, back[i], gen[i])
			}
		}
	})
}
