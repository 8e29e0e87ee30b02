package codec

import (
	"bytes"
	"math/rand"
	"testing"

	"fanstore/internal/dataset"
)

// TestDecompressScratchMatchesRegistry reuses ONE Scratch serially across
// every registry config and every input distribution, checking that a
// decode through it is byte-identical to Codec.Decompress (which borrows
// a scratch of its own) and to the original input. Reuse across codec
// families is the point: a huff decode must not be perturbed by the lzr
// model state a previous job left behind.
func TestDecompressScratchMatchesRegistry(t *testing.T) {
	inputs := testInputs()
	s := NewScratch()
	for _, cfg := range Registry() {
		for name, src := range inputs {
			comp, err := cfg.Codec.Compress(nil, src)
			if err != nil {
				t.Fatalf("%s: compress(%s): %v", cfg.Name, name, err)
			}
			want, err := cfg.Codec.Decompress(nil, comp)
			if err != nil {
				t.Fatalf("%s: decompress(%s): %v", cfg.Name, name, err)
			}
			got, err := DecompressScratch(cfg.Codec, s, nil, comp)
			if err != nil {
				t.Fatalf("%s: scratch decompress(%s): %v", cfg.Name, name, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: scratch mismatch on %s: got %d bytes, want %d", cfg.Name, name, len(got), len(want))
			}
			if !bytes.Equal(got, src) {
				t.Fatalf("%s: scratch decode of %s differs from the input: got %d bytes, want %d", cfg.Name, name, len(got), len(src))
			}
		}
	}
}

// TestWarmDecodeAllocatesNothing: every registry config decodes a 4 KiB
// EM file through Codec.Decompress with no allocation once one decode
// has warmed the borrowed scratch — a filter over lzh included, whose
// pre-image and LZ block have a slot each. The stdlib flate/lzw wrappers
// build their readers per call and are exempt.
func TestWarmDecodeAllocatesNothing(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race detector randomizes sync.Pool; pool determinism untestable")
	}
	src := dataset.Generator{Kind: dataset.EM, Seed: 1, Size: 4 << 10}.Bytes(0)
	dst := make([]byte, 0, len(src))
	for _, cfg := range Registry() {
		if cfg.Family == "flate" || cfg.Family == "lzw" {
			continue
		}
		comp, err := cfg.Codec.Compress(nil, src)
		if err != nil {
			t.Fatalf("%s: compress: %v", cfg.Name, err)
		}
		if out, err := cfg.Codec.Decompress(dst, comp); err != nil || !bytes.Equal(out, src) {
			t.Fatalf("%s: warm-up decode: %v", cfg.Name, err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := cfg.Codec.Decompress(dst, comp); err != nil {
				t.Fatalf("%s: %v", cfg.Name, err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: warm decode allocates %.1f objects/op, want 0", cfg.Name, allocs)
		}
	}
}

// TestDecompressScratchNilScratch: a nil scratch must fall back to the
// plain path (the nil-pool inline mode runs jobs with no scratch).
func TestDecompressScratchNilScratch(t *testing.T) {
	src := []byte("nil scratch falls back to the allocating decompress path")
	for _, name := range []string{"huff", "lzh-5", "lzr-5", "lzd-5", "shuffle4+lzh-6"} {
		cfg, ok := ByName(name)
		if !ok {
			continue // optional alias not in this build
		}
		comp, err := cfg.Codec.Compress(nil, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := DecompressScratch(cfg.Codec, nil, nil, comp)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, src) {
			t.Fatalf("%s: nil-scratch mismatch", name)
		}
	}
}

// TestDecompressScratchAppendsToDst: the scratch path must keep the
// append-to-dst contract of Codec.Decompress.
func TestDecompressScratchAppendsToDst(t *testing.T) {
	src := []byte("payload appended after an existing prefix")
	prefix := []byte("PREFIX")
	s := NewScratch()
	for _, name := range []string{"huff", "lzh-5", "lzr-5", "delta2+huff"} {
		cfg := MustGet(name)
		comp, err := cfg.Codec.Compress(nil, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := DecompressScratch(cfg.Codec, s, append([]byte(nil), prefix...), comp)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], src) {
			t.Fatalf("%s: scratch path broke the append-to-dst contract", name)
		}
	}
}

// TestHuffCanonicalCodesIntoMatches: the counting-sort code assignment
// must produce exactly the codes of the sort.Slice-based original, for
// length vectors arising from real frequency tables.
func TestHuffCanonicalCodesIntoMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewScratch()
	for trial := 0; trial < 50; trial++ {
		freq := make([]int, 256)
		nsyms := 1 + rng.Intn(256)
		for i := 0; i < nsyms; i++ {
			freq[rng.Intn(256)] = 1 + rng.Intn(1<<uint(rng.Intn(16)))
		}
		lengths := huffLengths(freq, 15)
		want := huffCanonicalCodes(lengths)
		got := huffCanonicalCodesInto(s, lengths)
		if len(got) != len(want) {
			t.Fatalf("trial %d: code count %d, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: code[%d] = %#x, want %#x", trial, i, got[i], want[i])
			}
		}
	}
}

// TestDecompressScratchCorruptInput: corrupted frames must error (or at
// worst round-trip wrong lengths), never panic — and the scratch must
// stay usable for a clean decode afterwards.
func TestDecompressScratchCorruptInput(t *testing.T) {
	src := bytes.Repeat([]byte("entropy coded payload 0123456789 "), 512)
	rng := rand.New(rand.NewSource(3))
	s := NewScratch()
	for _, name := range []string{"huff", "lzh-5", "lzr-5", "lzd-5"} {
		cfg := MustGet(name)
		comp, err := cfg.Codec.Compress(nil, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for trial := 0; trial < 200; trial++ {
			bad := append([]byte(nil), comp...)
			for k := 0; k < 1+rng.Intn(4); k++ {
				bad[rng.Intn(len(bad))] ^= byte(1 + rng.Intn(255))
			}
			_, _ = DecompressScratch(cfg.Codec, s, nil, bad) // must not panic
		}
		got, err := DecompressScratch(cfg.Codec, s, nil, comp)
		if err != nil || !bytes.Equal(got, src) {
			t.Fatalf("%s: scratch poisoned by corrupt inputs: %v", name, err)
		}
	}
}
