//go:build unix

package fanstore

import (
	"runtime/debug"
	"testing"

	"fanstore/internal/dataset"
	"fanstore/internal/pack"
)

// TestMappedObjectsAreReadOnly is the lending contract checked by the
// hardware: the bytes Get and Peek return from a mapped partition are
// read-only memory, so a write through either faults (a panic under
// SetPanicOnFault) instead of changing what a fetch reply lends.
func TestMappedObjectsAreReadOnly(t *testing.T) {
	bundle, _ := buildBundle(t, dataset.EM, 2, 1, 4<<10, nil)
	blob := mappedBlob(t, bundle.Scatter[0])
	part, err := pack.Parse(blob)
	if err != nil {
		t.Fatal(err)
	}
	b := NewRAMBackend()
	if err := b.AddPartition(blob, part); err != nil {
		t.Fatal(err)
	}
	p := cleanPath(part.Entries[0].Path)
	_, got, err := b.Get(p)
	if err != nil {
		t.Fatal(err)
	}
	_, peeked, ok := b.Peek(p)
	if !ok {
		t.Fatalf("Peek(%q) declined a mapped object", p)
	}
	for name, data := range map[string][]byte{"Get": got, "Peek": peeked} {
		if !writeFaults(data) {
			t.Errorf("a write through %s's bytes did not fault", name)
		}
	}
}

// writeFaults writes one byte of data and reports whether the write
// faulted; a panic that is not a memory fault propagates.
func writeFaults(data []byte) (faulted bool) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			if _, fault := r.(interface{ Addr() uintptr }); !fault {
				panic(r)
			}
			faulted = true
		}
	}()
	data[0] ^= 0xff
	return false
}
