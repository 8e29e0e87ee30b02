package codec

import (
	"fmt"
	"math/rand"
	"testing"

	"fanstore/internal/dataset"
)

// benchInput is a mixed literal/match workload representative of the
// imaging datasets (plateaus plus noise).
func benchInput(n int) []byte {
	rng := rand.New(rand.NewSource(12))
	out := make([]byte, 0, n)
	v := 120
	for len(out) < n {
		v += rng.Intn(9) - 4
		run := 2 + rng.Intn(8)
		for j := 0; j < run && len(out) < n; j++ {
			out = append(out, byte(v))
		}
	}
	return out
}

var benchFamilies = []string{
	"store", "rle", "lzf-2", "lz4", "lz4fast-16", "lz4hc-9",
	"lzsse8-4", "huff", "lzh-6", "lzd-6", "lzr-6", "flate-6", "lzw",
	"delta2+lz4",
}

func BenchmarkCompress(b *testing.B) {
	src := benchInput(256 << 10)
	for _, name := range benchFamilies {
		name := name
		b.Run(name, func(b *testing.B) {
			cfg := MustGet(name)
			b.SetBytes(int64(len(src)))
			var dst []byte
			var err error
			for i := 0; i < b.N; i++ {
				dst, err = cfg.Codec.Compress(dst[:0], src)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(src))/float64(len(dst)), "ratio")
		})
	}
}

func BenchmarkDecompress(b *testing.B) {
	src := benchInput(256 << 10)
	for _, name := range benchFamilies {
		name := name
		b.Run(name, func(b *testing.B) {
			cfg := MustGet(name)
			comp, err := cfg.Codec.Compress(nil, src)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(src)))
			b.ResetTimer()
			var dst []byte
			for i := 0; i < b.N; i++ {
				dst, err = cfg.Codec.Decompress(dst[:0], comp)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchShape is one file shape the ingest benchmark packs: 16 generated
// files of one dataset kind and size, under one codec.
type benchShape struct {
	name  string
	kind  dataset.Kind
	size  int
	codec string
}

func (s benchShape) files() [][]byte {
	g := dataset.Generator{Kind: s.kind, Seed: 1, Size: s.size}
	files := make([][]byte, 16)
	for i := range files {
		files[i] = g.Bytes(i)
	}
	return files
}

// BenchmarkCompressShapes compresses the shapes the ingest benchmark
// packs: 4 KiB Tokamak files under lz4hc (train_small) and EM files under
// lzsse8 of 128 KiB (train_cached) and 256 KiB (train_lz), into a reused
// buffer as one pack worker does. At 4 KiB an encoder's per-call set-up
// is a share of the cost that the larger shapes hide.
func BenchmarkCompressShapes(b *testing.B) {
	for _, shape := range []benchShape{
		{"tokamak-4k-lz4hc", dataset.Tokamak, 4 << 10, "lz4hc"},
		{"em-128k-lzsse8", dataset.EM, 128 << 10, "lzsse8"},
		{"em-256k-lzsse8", dataset.EM, 256 << 10, "lzsse8"},
	} {
		b.Run(shape.name, func(b *testing.B) {
			cfg := MustGet(shape.codec)
			files := shape.files()
			b.SetBytes(int64(len(files) * shape.size))
			b.ReportAllocs()
			var dst []byte
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, f := range files {
					var err error
					if dst, err = cfg.Codec.Compress(dst[:0], f); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkDecompressShapes decodes the two LZ4-block shapes the ingest
// benchmark's decoding workloads read: 256 KiB EM files under lzsse8
// (train_lz) and 4 KiB Tokamak files under lz4hc (train_small), 16
// generated files each, into a reused buffer as the decode pool does.
func BenchmarkDecompressShapes(b *testing.B) {
	for _, shape := range []benchShape{
		{"em-256k-lzsse8", dataset.EM, 256 << 10, "lzsse8"},
		{"tokamak-4k-lz4hc", dataset.Tokamak, 4 << 10, "lz4hc"},
	} {
		b.Run(shape.name, func(b *testing.B) {
			cfg := MustGet(shape.codec)
			comps := shape.files()
			for i, f := range comps {
				var err error
				if comps[i], err = cfg.Codec.Compress(nil, f); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(comps) * shape.size))
			dst := make([]byte, 0, shape.size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, comp := range comps {
					var err error
					if dst, err = cfg.Codec.Decompress(dst[:0], comp); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

func BenchmarkMatchFinder(b *testing.B) {
	src := benchInput(128 << 10)
	for _, attempts := range []int{4, 64, 1024} {
		b.Run(fmt.Sprintf("attempts=%d", attempts), func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				m := newChainMatcher(src, 0)
				pos := 0
				for pos < len(src)-8 {
					_, l := m.best(pos, 4, attempts, 0)
					if l == 0 {
						pos++
					} else {
						pos += l
					}
				}
				m.release()
			}
		})
	}
}

// BenchmarkLayeredEncode measures the layered container build: bit-plane
// split (or SZ base) plus per-layer inner compression.
func BenchmarkLayeredEncode(b *testing.B) {
	src := benchInput(256 << 10)
	for _, scheme := range []struct {
		name string
		opts LayerOptions
	}{
		{"bits-l3", LayerOptions{Layers: 3, Codecs: []string{"lz4"}}},
		{"float-l3", LayerOptions{Layers: 3, Scheme: LayerFloat, Codecs: []string{"lz4"}}},
	} {
		b.Run(scheme.name, func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			var dst []byte
			var err error
			for i := 0; i < b.N; i++ {
				dst, err = EncodeLayered(dst[:0], src, scheme.opts)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(src))/float64(len(dst)), "ratio")
		})
	}
}

// BenchmarkLayeredDecode measures the budget-proportional decode: level 1
// touches only the base extent, the full level pays every layer plus the
// XOR merges.
func BenchmarkLayeredDecode(b *testing.B) {
	src := benchInput(256 << 10)
	cont, err := EncodeLayered(nil, src, LayerOptions{Layers: 3, Codecs: []string{"lz4"}})
	if err != nil {
		b.Fatal(err)
	}
	ix, err := ParseLayerIndex(cont)
	if err != nil {
		b.Fatal(err)
	}
	s := NewScratch()
	for lvl := 1; lvl <= 3; lvl++ {
		prefix := cont[:ix.PrefixSize(lvl)]
		b.Run(fmt.Sprintf("level=%d", lvl), func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			b.ReportMetric(float64(len(prefix)), "fetchB")
			var dst []byte
			for i := 0; i < b.N; i++ {
				var err error
				dst, _, err = DecodeLayeredScratch(s, dst[:0], prefix, 0)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
