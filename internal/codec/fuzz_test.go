package codec

import (
	"bytes"
	"testing"

	"fanstore/internal/dataset"
)

// Native fuzz targets. Without -fuzz they run their seed corpus as
// regression tests; with `go test -fuzz=FuzzX ./internal/codec` they
// explore further.

// fuzzCodecs is a cross-family subset kept cheap enough for fuzzing.
var fuzzCodecs = []string{"store", "rle", "lzf-2", "lz4", "lz4fast-8", "lz4hc-9", "lzsse8-2", "huff", "lzh-3", "lzd-3", "lzr-2", "shuffle2+lz4"}

func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{0})
	f.Add([]byte("the quick brown fox jumps over the lazy dog"))
	f.Add(bytes.Repeat([]byte{0xAB, 0xCD}, 500))
	f.Add(bytes.Repeat([]byte("abc"), 100))
	f.Fuzz(func(t *testing.T, src []byte) {
		if len(src) > 1<<16 {
			src = src[:1<<16]
		}
		for _, name := range fuzzCodecs {
			cfg := MustGet(name)
			comp, err := cfg.Codec.Compress(nil, src)
			if err != nil {
				t.Fatalf("%s: compress: %v", name, err)
			}
			got, err := cfg.Codec.Decompress(nil, comp)
			if err != nil {
				t.Fatalf("%s: decompress: %v", name, err)
			}
			if !bytes.Equal(got, src) {
				t.Fatalf("%s: round trip mismatch", name)
			}
			// An unrelated input between two compressions of src
			// must not change what src compresses to.
			if _, err := cfg.Codec.Compress(nil, fuzzUnrelated); err != nil {
				t.Fatalf("%s: compress: %v", name, err)
			}
			if again, err := cfg.Codec.Compress(nil, src); err != nil || !bytes.Equal(again, comp) {
				t.Fatalf("%s: compressed differently after an unrelated input (err %v)", name, err)
			}
		}
	})
}

// fuzzUnrelated is the input FuzzRoundTrip compresses between two
// compressions of the fuzzed one: 16 KiB of Tokamak data, whose table
// entries the second compression must not take for its own.
var fuzzUnrelated = dataset.Generator{Kind: dataset.Tokamak, Seed: 3, Size: 16 << 10}.Bytes(0)

// FuzzDecompress feeds arbitrary bytes to every decoder: errors are fine,
// panics and runaway allocations are not. Each stream is decoded twice,
// through Codec.Decompress and through one Scratch the target keeps for
// every input, and the two must agree; a clean stream decoded through
// that same Scratch must then still round-trip, so a corrupt frame
// cannot poison the state the next decode inherits.
func FuzzDecompress(f *testing.F) {
	seed, _ := MustGet("lz4").Codec.Compress(nil, []byte("seed data for the corpus"))
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff})
	clean := bytes.Repeat([]byte("clean stream after a fuzzed one 0123456789 "), 40)
	cleanComp := make(map[string][]byte, len(fuzzCodecs))
	for _, name := range fuzzCodecs {
		comp, err := MustGet(name).Codec.Compress(nil, clean)
		if err != nil {
			f.Fatalf("%s: compress: %v", name, err)
		}
		cleanComp[name] = comp
	}
	s := NewScratch()
	f.Fuzz(func(t *testing.T, stream []byte) {
		for _, name := range fuzzCodecs {
			cfg := MustGet(name)
			out, err := cfg.Codec.Decompress(nil, stream)
			if err == nil && len(out) > MaxDecodedSize {
				t.Fatalf("%s: decoded %d bytes", name, len(out))
			}
			sout, serr := DecompressScratch(cfg.Codec, s, nil, stream)
			if (serr == nil) != (err == nil) || (err == nil && !bytes.Equal(sout, out)) {
				t.Fatalf("%s: scratch decode (err %v) diverges from Decompress (err %v)", name, serr, err)
			}
			got, err := DecompressScratch(cfg.Codec, s, nil, cleanComp[name])
			if err != nil || !bytes.Equal(got, clean) {
				t.Fatalf("%s: clean stream after a fuzzed one: err %v, round trip %v", name, err, bytes.Equal(got, clean))
			}
		}
	})
}

// FuzzLZ4Differential runs arbitrary (block, origLen) pairs through
// lz4Decompress and the byte-at-a-time oracle: no panic, and the same
// outcome and bytes from both.
func FuzzLZ4Differential(f *testing.F) {
	src := bytes.Repeat([]byte("seed data, seed data; 0x0102 0x0102 "), 8)
	for _, name := range []string{"lz4", "lz4hc-9", "lzsse8-4"} {
		comp, _ := MustGet(name).Codec.Compress(nil, src)
		_, block, _ := splitHeader(comp)
		f.Add(block, len(src))
	}
	// Real blocks of the benchmark's two decoding shapes, long enough that
	// mutations start inside the decoder's fast zone.
	for _, s := range []struct {
		kind  dataset.Kind
		size  int
		codec string
	}{{dataset.Tokamak, 4 << 10, "lz4hc"}, {dataset.EM, 2 << 10, "lzsse8"}} {
		src := dataset.Generator{Kind: s.kind, Seed: 1, Size: s.size}.Bytes(0)
		comp, _ := MustGet(s.codec).Codec.Compress(nil, src)
		_, block, _ := splitHeader(comp)
		f.Add(block, len(src))
	}
	f.Add(lz4EmitSeq(nil, []byte("abc"), 3, 40), 43)
	f.Add([]byte{0x1f, 'a', 1, 0, 255, 7}, 1<<30)
	f.Add([]byte{}, 0)
	f.Fuzz(func(t *testing.T, block []byte, origLen int) {
		if len(block) > 4<<10 {
			block = block[:4<<10] // bounds the declared length a block may carry to ~1 MiB
		}
		if err := lz4Agree(block, origLen); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzLayeredRoundTrip layers arbitrary payloads under both schemes and
// checks the XOR-prefix contract: full decode is exact, every prefix
// decodes to a full-length record.
func FuzzLayeredRoundTrip(f *testing.F) {
	f.Add([]byte(nil), 2)
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), 3)
	f.Add(bytes.Repeat([]byte{1, 2, 3, 4}, 300), 4)
	f.Fuzz(func(t *testing.T, src []byte, layers int) {
		if len(src) > 1<<16 {
			src = src[:1<<16]
		}
		layers = 2 + (layers&0x7fffffff)%(MaxLayers-1)
		for _, scheme := range []LayerScheme{LayerBits, LayerFloat} {
			cont, err := EncodeLayered(nil, src, LayerOptions{Layers: layers, Scheme: scheme, Codecs: []string{"lz4"}})
			if err != nil {
				t.Fatalf("scheme %d: encode: %v", scheme, err)
			}
			ix, err := ParseLayerIndex(cont)
			if err != nil {
				t.Fatalf("scheme %d: index: %v", scheme, err)
			}
			for lvl := 1; lvl <= layers; lvl++ {
				out, k, err := DecodeLayered(nil, cont[:ix.PrefixSize(lvl)], 0)
				if err != nil || k != lvl {
					t.Fatalf("scheme %d level %d: k=%d err=%v", scheme, lvl, k, err)
				}
				if len(out) != len(src) {
					t.Fatalf("scheme %d level %d: %d bytes, want %d", scheme, lvl, len(out), len(src))
				}
				if lvl == layers && !bytes.Equal(out, src) {
					t.Fatalf("scheme %d: full decode mismatch", scheme)
				}
			}
		}
	})
}

// FuzzLayeredDecode feeds arbitrary bytes to the layered parser and
// decoder: malformed indexes, truncated refinements, and overlapping
// extents must error, never panic.
func FuzzLayeredDecode(f *testing.F) {
	seed, _ := EncodeLayered(nil, []byte("layered fuzz corpus seed data"), LayerOptions{Layers: 3})
	f.Add(seed)
	fseed, _ := EncodeLayered(nil, bytes.Repeat([]byte{0, 0, 0x80, 0x3f}, 64), LayerOptions{Layers: 2, Scheme: LayerFloat})
	f.Add(fseed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte{layeredMagic0, layeredMagic1, layeredVersion, 0, 2, 4, 0, 4, 0, 4})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, container []byte) {
		ix, err := ParseLayerIndex(container)
		if err == nil {
			// A parsed index must be self-consistent even on fuzzed input.
			if ix.Layers() < 1 || ix.OrigLen > MaxDecodedSize {
				t.Fatalf("parser accepted bad index: layers=%d origLen=%d", ix.Layers(), ix.OrigLen)
			}
			for i, e := range ix.Extents {
				want := uint32(0)
				if i > 0 {
					want = ix.Extents[i-1].Off + ix.Extents[i-1].Len
				}
				if e.Off != want {
					t.Fatalf("parser accepted non-contiguous extent %d", i)
				}
			}
		}
		out, k, err := DecodeLayered(nil, container, 0)
		if err == nil {
			if k < 1 || len(out) > MaxDecodedSize {
				t.Fatalf("decode: k=%d len=%d", k, len(out))
			}
		}
		s := NewScratch()
		sout, sk, serr := DecodeLayeredScratch(s, nil, container, 2)
		if (serr == nil) && err == nil && k >= 2 {
			want, _, _ := DecodeLayered(nil, container, 2)
			if sk != 2 || !bytes.Equal(sout, want) {
				t.Fatal("scratch decode diverges")
			}
		}
		// Arbitrary bytes as a lone refinement body must also never panic.
		_, _ = DecodeLayerBody(nil, container, 64)
	})
}
