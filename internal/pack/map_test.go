package pack

import (
	"bytes"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMap maps a marshaled partition and parses it in place: the blob
// and every entry's payload are byte-exact.
func TestMap(t *testing.T) {
	entries := sampleEntries(t, 5)
	blob, err := Marshal(entries)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "part-0000.fst")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	mapped, unmap, err := Map(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mapped, blob) {
		t.Fatal("mapped bytes differ from the file's")
	}
	p, err := Parse(mapped)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Entries {
		if !bytes.Equal(p.Entries[i].Data, entries[i].Data) {
			t.Fatalf("entry %d: payload differs", i)
		}
	}
	if err := unmap(); err != nil {
		t.Fatal(err)
	}
}

// TestMapLen is Map's refusal of files that cannot be one blob, the
// oversized row at a 32-bit platform's bound, which no file on a 64-bit
// test host can reach.
func TestMapLen(t *testing.T) {
	const max32 = math.MaxInt32
	for _, c := range []struct {
		name string
		mode fs.FileMode
		size int64
		want string // error substring; "" = accepted
	}{
		{"regular", 0o644, 1 << 20, ""},
		{"at-bound", 0o644, max32, ""},
		{"directory", fs.ModeDir | 0o755, 4096, "not a regular file"},
		{"device", fs.ModeDevice | 0o644, 0, "not a regular file"},
		{"empty", 0o644, 0, "empty file"},
		{"oversized", 0o644, max32 + 1, "do not fit"},
	} {
		n, err := mapLen("p.fst", c.mode, c.size, max32)
		switch {
		case c.want == "" && (err != nil || int64(n) != c.size):
			t.Errorf("%s: mapLen = %d, %v; want %d", c.name, n, err, c.size)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), "p.fst")):
			t.Errorf("%s: mapLen error = %v; want one naming p.fst with %q", c.name, err, c.want)
		}
	}
}
