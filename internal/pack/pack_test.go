package pack

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"fanstore/internal/codec"
	"fanstore/internal/dataset"
)

func sampleEntries(t *testing.T, n int) []Entry {
	t.Helper()
	g := dataset.Generator{Kind: dataset.Language, Seed: 9, Size: 4 << 10}
	cfg := codec.MustGet("lz4hc-9")
	var entries []Entry
	for i := 0; i < n; i++ {
		data := g.Bytes(i)
		comp, err := cfg.Codec.Compress(nil, data)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, Entry{
			Path:         fmt.Sprintf("lang/f%03d.txt", i),
			CompressorID: cfg.ID,
			Stat:         statOf(data),
			Data:         comp,
		})
	}
	return entries
}

func statOf(data []byte) Stat {
	return Stat{Size: int64(len(data)), Mode: 0o644, CRC32: crc32.ChecksumIEEE(data)}
}

func TestMarshalParseRoundTrip(t *testing.T) {
	entries := sampleEntries(t, 7)
	blob, err := Marshal(entries)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Parse(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Entries) != len(entries) {
		t.Fatalf("got %d entries, want %d", len(p.Entries), len(entries))
	}
	for i := range entries {
		got, want := p.Entries[i], entries[i]
		if got.Path != want.Path || got.CompressorID != want.CompressorID ||
			got.Stat != want.Stat || !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("entry %d mismatch", i)
		}
		orig, err := got.Decompress(nil)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(orig)) != got.Stat.Size {
			t.Fatalf("entry %d: decompressed %d bytes", i, len(orig))
		}
	}
}

func TestMarshalEmptyPartition(t *testing.T) {
	blob, err := Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Parse(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Entries) != 0 {
		t.Fatalf("want empty partition, got %d entries", len(p.Entries))
	}
}

func TestPathTooLong(t *testing.T) {
	entries := []Entry{{Path: strings.Repeat("x", PathLen)}}
	if _, err := Marshal(entries); err == nil {
		t.Fatal("overlong path should fail")
	}
}

func TestParseRejectsCorrupt(t *testing.T) {
	entries := sampleEntries(t, 3)
	blob, err := Marshal(entries)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":          {},
		"header only":    blob[:4],
		"mid header":     blob[:4+PathLen/2],
		"mid data":       blob[:len(blob)-10],
		"trailing bytes": append(append([]byte(nil), blob...), 1, 2, 3),
	}
	for name, b := range cases {
		if _, err := Parse(b); err == nil {
			t.Errorf("%s: Parse accepted corrupt blob", name)
		}
	}
	// Corrupting compressed bytes must surface at Decompress via CRC.
	mut := append([]byte(nil), blob...)
	mut[len(mut)-20] ^= 0xff
	p, err := Parse(mut)
	if err != nil {
		return // also acceptable: structural detection
	}
	for i := range p.Entries {
		if _, err := p.Entries[i].Decompress(nil); err != nil {
			return
		}
	}
	t.Error("bit flip in payload escaped both Parse and Decompress CRC")
}

// TestParseQuick fuzzes Parse with random blobs: it must never panic and
// never return entries aliasing out-of-range memory.
func TestParseQuick(t *testing.T) {
	f := func(blob []byte) bool {
		p, err := Parse(blob)
		if err != nil {
			return true
		}
		for i := range p.Entries {
			e := &p.Entries[i]
			if len(e.Path) >= PathLen {
				return false
			}
			_ = e.Data
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildScattersAndBroadcasts(t *testing.T) {
	var files []InputFile
	for i := 0; i < 20; i++ {
		files = append(files, InputFile{
			Path: fmt.Sprintf("train/f%02d.txt", i),
			Data: bytes.Repeat([]byte(fmt.Sprintf("sample %d ", i)), 200),
		})
	}
	for i := 0; i < 4; i++ {
		files = append(files, InputFile{
			Path: fmt.Sprintf("val/f%02d.txt", i),
			Data: bytes.Repeat([]byte("validation "), 100),
		})
	}
	bundle, err := Build(files, BuildOptions{
		Partitions:    4,
		Compressor:    "lz4hc",
		Workers:       3,
		BroadcastDirs: []string{"val"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(bundle.Scatter) != 4 {
		t.Fatalf("got %d scatter partitions", len(bundle.Scatter))
	}
	if bundle.Broadcast == nil {
		t.Fatal("broadcast partition missing")
	}
	paths, err := SortedPaths(append(bundle.Scatter, bundle.Broadcast)...)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != len(files) {
		t.Fatalf("bundle has %d files, want %d", len(paths), len(files))
	}
	bp, err := Parse(bundle.Broadcast)
	if err != nil {
		t.Fatal(err)
	}
	if len(bp.Entries) != 4 {
		t.Fatalf("broadcast partition has %d entries, want 4", len(bp.Entries))
	}
	for _, e := range bp.Entries {
		if !strings.HasPrefix(e.Path, "val/") {
			t.Fatalf("scatter file %s leaked into broadcast", e.Path)
		}
	}
	// Partition sizes stay balanced under round-robin assignment.
	for i, blob := range bundle.Scatter {
		p, err := Parse(blob)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Entries) != 5 {
			t.Fatalf("partition %d has %d entries, want 5", i, len(p.Entries))
		}
	}
	if bundle.Ratio() < 2 {
		t.Fatalf("repetitive text should compress >= 2x, got %.2f", bundle.Ratio())
	}
}

// TestBuildIndependentOfWorkers checks that a bundle is a function of its
// inputs: one worker and four, which compress the files in different
// orders on different goroutines, must build the same bytes.
func TestBuildIndependentOfWorkers(t *testing.T) {
	var files []InputFile
	for i := 0; i < 48; i++ {
		size := 4 << 10
		if i%8 == 0 {
			size = 16 << 10
		}
		g := dataset.Generator{Kind: dataset.Tokamak, Seed: 3, Size: size}
		files = append(files, InputFile{Path: fmt.Sprintf("tokamak/f%02d.npz", i), Data: g.Bytes(i)})
	}
	for _, compressor := range []string{"lz4", "lz4fast", "lzf", "lz4hc"} {
		var bundles [2]*Bundle
		for k, workers := range []int{1, 4} {
			var err error
			bundles[k], err = Build(files, BuildOptions{Partitions: 2, Compressor: compressor, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
		}
		for p := range bundles[0].Scatter {
			if !bytes.Equal(bundles[0].Scatter[p], bundles[1].Scatter[p]) {
				t.Errorf("%s: partition %d differs between 1 and 4 workers", compressor, p)
			}
		}
	}
}

func TestBuildStoresIncompressible(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := make([]byte, 32<<10)
	rng.Read(data)
	bundle, err := Build([]InputFile{{Path: "noise.bin", Data: data}}, BuildOptions{
		Partitions: 1,
		Compressor: "lzma",
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Parse(bundle.Scatter[0])
	if err != nil {
		t.Fatal(err)
	}
	storeID := codec.MustGet("store").ID
	if p.Entries[0].CompressorID != storeID {
		t.Fatalf("incompressible file should fall back to store, got id %d", p.Entries[0].CompressorID)
	}
	got, err := p.Entries[0].Decompress(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("stored payload mismatch")
	}
}

func TestBuildEveryDatasetRoundTrips(t *testing.T) {
	for _, k := range dataset.Kinds() {
		g := dataset.Generator{Kind: k, Seed: 5, Size: 16 << 10}
		files := make([]InputFile, 8)
		want := make(map[string][]byte)
		for i := range files {
			f := g.File(i, len(files))
			files[i] = InputFile{Path: f.Path, Data: f.Data}
			want[f.Path] = f.Data
		}
		bundle, err := Build(files, BuildOptions{Partitions: 3, Compressor: "lzsse8"})
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		for _, blob := range bundle.Scatter {
			p, err := Parse(blob)
			if err != nil {
				t.Fatalf("%s: %v", k, err)
			}
			for i := range p.Entries {
				got, err := p.Entries[i].Decompress(nil)
				if err != nil {
					t.Fatalf("%s: %v", k, err)
				}
				if !bytes.Equal(got, want[p.Entries[i].Path]) {
					t.Fatalf("%s: %s corrupted in round trip", k, p.Entries[i].Path)
				}
				delete(want, p.Entries[i].Path)
			}
		}
		if len(want) != 0 {
			t.Fatalf("%s: %d files missing from bundle", k, len(want))
		}
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil, BuildOptions{Partitions: 0, Compressor: "lz4"}); err == nil {
		t.Error("zero partitions should fail")
	}
	if _, err := Build(nil, BuildOptions{Partitions: 1, Compressor: "nope"}); err == nil {
		t.Error("unknown compressor should fail")
	}
}
