// Benchmarks regenerating the measured core of every table and figure in
// the paper's evaluation (§VII), one Benchmark per exhibit, plus the
// ablation benches for the design decisions called out in DESIGN.md.
//
//	go test -bench=. -benchmem
//
// Custom metrics: files/s for read-path benches (the unit of Tables III
// and VI), MB/s for codec benches (the Fig. 7 axis), ratio for
// compression benches (Table IV), and eff% for scaling benches (Fig. 9).
package fanstore_test

import (
	"fmt"
	"testing"
	"time"

	"fanstore"
	"fanstore/internal/cluster"
	"fanstore/internal/codec"
	"fanstore/internal/dataset"
	"fanstore/internal/iobench"
	"fanstore/internal/lossy"
	"fanstore/internal/prefetch"
	"fanstore/internal/selector"
	"fanstore/internal/tfrecord"
	"fanstore/internal/trainsim"
)

// buildSet packs a synthetic dataset and returns the bundle plus paths.
func buildSet(b *testing.B, kind dataset.Kind, n, size, parts int, compressor string) (*fanstore.Bundle, []string) {
	b.Helper()
	g := dataset.Generator{Kind: kind, Seed: 17, Size: size}
	inputs := make([]fanstore.InputFile, n)
	paths := make([]string, n)
	for i := range inputs {
		f := g.File(i, n)
		inputs[i] = fanstore.InputFile{Path: f.Path, Data: f.Data}
		paths[i] = f.Path
	}
	bundle, err := fanstore.Pack(inputs, fanstore.BuildOptions{Partitions: parts, Compressor: compressor})
	if err != nil {
		b.Fatal(err)
	}
	return bundle, paths
}

// withNode mounts a single-rank store and runs the timed body inside it.
func withNode(b *testing.B, bundle *fanstore.Bundle, opts fanstore.Options, body func(*fanstore.Node)) {
	b.Helper()
	err := fanstore.Run(1, func(c *fanstore.Comm) error {
		node, err := fanstore.Mount(c, bundle.Scatter, nil, opts)
		if err != nil {
			return err
		}
		defer node.Close()
		b.ResetTimer()
		body(node)
		b.StopTimer()
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFig1 evaluates the efficiency/capacity model of Fig. 1.
func BenchmarkFig1(b *testing.B) {
	nodes := []int{1, 2, 3, 4, 6, 8, 12, 16}
	for i := 0; i < b.N; i++ {
		trainsim.EfficiencyModel(cluster.GTX, 140, 256, 128, 2.4, nodes)
	}
}

// BenchmarkFig6 compares the two read paths of Fig. 6: FanStore per-file
// access versus a TFRecord scan with tf.Example parsing.
func BenchmarkFig6(b *testing.B) {
	const n, size = 24, 96 << 10
	bundle, paths := buildSet(b, dataset.ImageNet, n, size, 1, "memcpy")
	b.Run("FanStore", func(b *testing.B) {
		withNode(b, bundle, fanstore.Options{CachePolicy: fanstore.Immediate}, func(node *fanstore.Node) {
			files := 0
			for i := 0; i < b.N; i++ {
				if _, err := node.ReadFile(paths[i%len(paths)]); err != nil {
					b.Fatal(err)
				}
				files++
			}
			b.ReportMetric(float64(files)/b.Elapsed().Seconds(), "files/s")
		})
	})
	b.Run("TFRecord", func(b *testing.B) {
		g := dataset.Generator{Kind: dataset.ImageNet, Seed: 17, Size: size}
		names := make([]string, n)
		payloads := make([][]byte, n)
		for i := range names {
			f := g.File(i, n)
			names[i], payloads[i] = f.Path, f.Data
		}
		blob, err := tfrecord.MarshalDataset(names, payloads)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		files := 0
		for i := 0; i < b.N; i++ {
			res, err := iobench.MeasureTFExamples(blob, 1)
			if err != nil {
				b.Fatal(err)
			}
			files += res.Files
		}
		b.ReportMetric(float64(files)/b.Elapsed().Seconds(), "files/s")
	})
}

// BenchmarkTable3 measures the live FanStore read path at the four
// Table III file sizes (the modeled device rows print via
// cmd/experiments -run table3).
func BenchmarkTable3(b *testing.B) {
	for _, size := range []int{128 << 10, 512 << 10, 2 << 20, 8 << 20} {
		size := size
		b.Run(fmt.Sprintf("size=%dKB", size>>10), func(b *testing.B) {
			n := 16
			if size >= 2<<20 {
				n = 4
			}
			bundle, paths := buildSet(b, dataset.ImageNet, n, size, 1, "memcpy")
			withNode(b, bundle, fanstore.Options{CachePolicy: fanstore.Immediate, CacheBytes: 1 << 30}, func(node *fanstore.Node) {
				for i := 0; i < b.N; i++ {
					if _, err := node.ReadFile(paths[i%len(paths)]); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "files/s")
				b.SetBytes(int64(size))
			})
		})
	}
}

// BenchmarkFig7 times decompression for one representative of each codec
// family on the EM (tif) dataset — the x-axis of Fig. 7.
func BenchmarkFig7(b *testing.B) {
	g := dataset.Generator{Kind: dataset.EM, Seed: 17, Size: 256 << 10}
	src := g.Bytes(0)
	for _, name := range []string{"memcpy", "lzf", "lzsse8", "lz4", "lz4hc", "huff", "zling", "brotli", "flate-6", "lzma"} {
		name := name
		b.Run(name, func(b *testing.B) {
			cfg := codec.MustGet(name)
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
			b.ReportMetric(float64(len(src))/float64(len(comp)), "ratio")
		})
	}
}

// BenchmarkTable4 times compression of each dataset with the paper's four
// Table IV codecs, reporting the achieved ratio.
func BenchmarkTable4(b *testing.B) {
	for _, kind := range dataset.Kinds() {
		size := 128 << 10
		if kind == dataset.Tokamak {
			size = 1200
		}
		g := dataset.Generator{Kind: kind, Seed: 17, Size: size}
		src := g.Bytes(0)
		for _, name := range []string{"lzsse8", "lz4hc", "lzma", "xz"} {
			b.Run(fmt.Sprintf("%s/%s", kind.Spec().Format, name), func(b *testing.B) {
				cfg := codec.MustGet(name)
				b.SetBytes(int64(len(src)))
				var comp []byte
				var err error
				for i := 0; i < b.N; i++ {
					comp, err = cfg.Codec.Compress(comp[:0], src)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(src))/float64(len(comp)), "ratio")
			})
		}
	}
}

// BenchmarkTable6 measures the live read path at the Table VI file sizes
// through a compressed (lzsse8) store — read plus decompression, the
// quantity Tpt_read/Bdw_read capture.
func BenchmarkTable6(b *testing.B) {
	for _, tc := range []struct {
		label string
		size  int
	}{{"512KB", 512 << 10}, {"2MB", 2 << 20}, {"1KB", 1 << 10}} {
		tc := tc
		b.Run(tc.label, func(b *testing.B) {
			n := 16
			if tc.size >= 2<<20 {
				n = 4
			}
			bundle, paths := buildSet(b, dataset.EM, n, tc.size, 1, "lzsse8")
			withNode(b, bundle, fanstore.Options{CachePolicy: fanstore.Immediate, CacheBytes: 1 << 30}, func(node *fanstore.Node) {
				for i := 0; i < b.N; i++ {
					if _, err := node.ReadFile(paths[i%len(paths)]); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "files/s")
				b.SetBytes(int64(tc.size))
			})
		})
	}
}

// BenchmarkTable7 runs the full selection pipeline (Eq. 1-3 evaluation
// over the Table VII(a) candidate set).
func BenchmarkTable7(b *testing.B) {
	app := cluster.SRGANonGTX.SelectorProfile()
	perf := cluster.GTX.FanStorePerf(762 << 10)
	cands := []selector.Candidate{
		{Name: "lzsse8", DecompressPerFile: 619 * time.Microsecond, Ratio: 2.5},
		{Name: "lz4hc", DecompressPerFile: 858 * time.Microsecond, Ratio: 2.1},
		{Name: "brotli", DecompressPerFile: 4741 * time.Microsecond, Ratio: 3.4},
		{Name: "zling", DecompressPerFile: 17123 * time.Microsecond, Ratio: 3.1},
		{Name: "lzma", DecompressPerFile: 41261 * time.Microsecond, Ratio: 4.2},
	}
	for i := 0; i < b.N; i++ {
		if _, ok := selector.Select(app, perf, cands); !ok {
			b.Fatal("no selection")
		}
	}
}

// BenchmarkFig8 evaluates the training-iteration model for all three
// application panels and their candidate compressors.
func BenchmarkFig8(b *testing.B) {
	type panel struct {
		app   cluster.App
		c     cluster.Cluster
		cands []selector.Candidate
	}
	panels := []panel{
		{cluster.SRGANonGTX, cluster.GTX, []selector.Candidate{
			{Name: "lzsse8", DecompressPerFile: 619 * time.Microsecond, Ratio: 2.5},
			{Name: "lzma", DecompressPerFile: 41261 * time.Microsecond, Ratio: 4.2}}},
		{cluster.FRNNonCPU, cluster.CPU, []selector.Candidate{
			{Name: "lzf", DecompressPerFile: 410 * time.Nanosecond, Ratio: 8.7}}},
		{cluster.SRGANonV100, cluster.V100, []selector.Candidate{
			{Name: "lz4hc", DecompressPerFile: 942 * time.Microsecond, Ratio: 2.1}}},
	}
	for i := 0; i < b.N; i++ {
		for _, p := range panels {
			for _, cand := range p.cands {
				cfg := trainsim.Config{
					App: p.app, Clust: p.c, Nodes: 4,
					DecompressPerFile: cand.DecompressPerFile, Ratio: cand.Ratio,
				}
				_ = cfg.RelativePerf()
			}
		}
	}
}

// BenchmarkFig9 runs the weak-scaling sweeps to 512 nodes and reports the
// terminal efficiency.
func BenchmarkFig9(b *testing.B) {
	resnet := trainsim.Config{
		App: cluster.ResNet50, Clust: cluster.CPU,
		DecompressPerFile: 50 * time.Microsecond, Ratio: 1,
	}
	counts := []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}
	var eff float64
	for i := 0; i < b.N; i++ {
		pts := trainsim.WeakScaling(resnet, counts)
		eff = pts[len(pts)-1].Efficiency
	}
	b.ReportMetric(eff*100, "eff%")
}

// --- Ablation benches (DESIGN.md key decisions) ---

// BenchmarkAblationCachePolicy compares the paper's pinned FIFO against
// LRU and immediate release under a uniform-random re-read workload with
// a cache holding half the dataset (§IV-C3's argument: uniform access
// probability makes recency worthless, so FIFO ~ LRU, both beating
// immediate release).
func BenchmarkAblationCachePolicy(b *testing.B) {
	const n, size = 32, 64 << 10
	for _, pol := range []fanstore.Policy{fanstore.FIFO, fanstore.LRU, fanstore.Immediate} {
		pol := pol
		b.Run(pol.String(), func(b *testing.B) {
			bundle, paths := buildSet(b, dataset.EM, n, size, 1, "lzsse8")
			opts := fanstore.Options{CachePolicy: pol, CacheBytes: int64(n * size / 2)}
			withNode(b, bundle, opts, func(node *fanstore.Node) {
				for i := 0; i < b.N; i++ {
					if _, err := node.ReadFile(paths[(i*7)%len(paths)]); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(counter(b, node, "fanstore.decompresses"))/float64(b.N), "decomp/op")
			})
		})
	}
}

// counter reads a named counter from the node's registry, failing the
// benchmark on a name the registry does not hold: a renamed instrument
// must not report as 0 per op.
func counter(b testing.TB, node *fanstore.Node, name string) int64 {
	b.Helper()
	v, ok := node.Registry().Snapshot().Counters[name]
	if !ok {
		b.Errorf("registry holds no counter %q", name)
	}
	return v
}

// BenchmarkAblationMetadata compares FanStore's RAM-table stat() against
// the modeled shared-filesystem RPC it replaces (§IV-C1).
func BenchmarkAblationMetadata(b *testing.B) {
	bundle, paths := buildSet(b, dataset.ImageNet, 64, 4<<10, 1, "memcpy")
	b.Run("fanstore-ram", func(b *testing.B) {
		withNode(b, bundle, fanstore.Options{}, func(node *fanstore.Node) {
			for i := 0; i < b.N; i++ {
				if _, err := node.Stat(paths[i%len(paths)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	b.Run("lustre-rpc-model", func(b *testing.B) {
		dev := cluster.CPU.Shared.Device()
		var total time.Duration
		for i := 0; i < b.N; i++ {
			total += dev.Overhead // one MDS round trip per stat
		}
		b.ReportMetric(float64(total)/float64(b.N), "modeled-ns/op")
	})
}

// BenchmarkAblationRing compares reading a peer's partition with and
// without ring replication (§V-D): replicated data is served locally,
// unreplicated data costs a fetch message round trip per open.
func BenchmarkAblationRing(b *testing.B) {
	const n, size = 16, 64 << 10
	for _, replicate := range []bool{false, true} {
		name := "remote-fetch"
		if replicate {
			name = "ring-replicated"
		}
		b.Run(name, func(b *testing.B) {
			g := dataset.Generator{Kind: dataset.EM, Seed: 17, Size: size}
			inputs := make([]fanstore.InputFile, n)
			paths := make([]string, n)
			for i := range inputs {
				f := g.File(i, n)
				inputs[i] = fanstore.InputFile{Path: f.Path, Data: f.Data}
				paths[i] = f.Path
			}
			bundle, err := fanstore.Pack(inputs, fanstore.BuildOptions{Partitions: 2, Compressor: "lzsse8"})
			if err != nil {
				b.Fatal(err)
			}
			err = fanstore.Run(2, func(c *fanstore.Comm) error {
				opts := fanstore.Options{CachePolicy: fanstore.Immediate}
				own := [][]byte{bundle.Scatter[c.Rank()]}
				if replicate {
					extra, err := fanstore.RingReplicate(c, own)
					if err != nil {
						return err
					}
					opts.Replicas = extra
				}
				node, err := fanstore.Mount(c, own, nil, opts)
				if err != nil {
					return err
				}
				defer node.Close()
				if c.Rank() == 0 {
					// Rank 0 reads only rank 1's files (partition 1 holds
					// the odd-indexed round-robin assignments).
					var theirs []string
					for i := 1; i < n; i += 2 {
						theirs = append(theirs, paths[i])
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := node.ReadFile(theirs[i%len(theirs)]); err != nil {
							return err
						}
					}
					b.StopTimer()
					b.ReportMetric(float64(counter(b, node, "fanstore.opens.remote"))/float64(b.N), "remote/op")
				}
				return c.Barrier()
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkAblationInterception quantifies the user-space shim cost the
// function-interception design keeps low (§V-C): a full open/read/close
// cycle against a warm cache, the hot path of every training iteration.
func BenchmarkAblationInterception(b *testing.B) {
	bundle, paths := buildSet(b, dataset.ImageNet, 8, 64<<10, 1, "memcpy")
	withNode(b, bundle, fanstore.Options{}, func(node *fanstore.Node) {
		buf := make([]byte, 64<<10)
		for i := 0; i < b.N; i++ {
			f, err := node.Open(paths[i%len(paths)])
			if err != nil {
				b.Fatal(err)
			}
			if _, err := f.Read(buf); err != nil {
				b.Fatal(err)
			}
			if err := f.Close(); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(64 << 10)
	})
}

// BenchmarkExtensionLossy times the §VIII future-work codecs (SZ and
// ZFP) on smooth float32 data.
func BenchmarkExtensionLossy(b *testing.B) {
	src := make([]float32, 64<<10)
	v := 0.0
	for i := range src {
		v += float64(i%17)*0.001 - 0.008
		src[i] = float32(v)
	}
	codecs := []lossy.FloatCodec{
		lossy.SZ{ErrBound: 1e-3},
		lossy.ZFP{Rate: 8},
		lossy.ZFP{Rate: 16},
	}
	for _, c := range codecs {
		c := c
		b.Run(c.Name(), func(b *testing.B) {
			coded, err := c.Compress(nil, src)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(4 * len(src)))
			b.ResetTimer()
			var out []float32
			for i := 0; i < b.N; i++ {
				out, err = c.Decompress(out[:0], coded)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(lossy.Ratio(len(src), len(coded)), "ratio")
		})
	}
}

// BenchmarkExtensionPrefetch measures the async pipeline's ability to
// hide per-file latency (Fig. 5b): iterations should cost ~max(compute,
// io/workers), not compute+io.
func BenchmarkExtensionPrefetch(b *testing.B) {
	bundle, paths := buildSet(b, dataset.EM, 32, 32<<10, 1, "lzsse8")
	for _, workers := range []int{1, 4} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			withNode(b, bundle, fanstore.Options{CachePolicy: fanstore.Immediate}, func(node *fanstore.Node) {
				sampler := func(i int) ([]string, bool) {
					if i >= b.N {
						return nil, false
					}
					return paths[(i*4)%len(paths) : (i*4)%len(paths)+4], true
				}
				pipe := prefetch.New(node, sampler, prefetch.Options{Workers: workers, Depth: 2})
				defer pipe.Stop()
				for i := 0; i < b.N; i++ {
					if _, ok, err := pipe.Next(); err != nil || !ok {
						b.Fatalf("iter %d: ok=%v err=%v", i, ok, err)
					}
				}
			})
		})
	}
}

// BenchmarkAblationChunked compares the §III chunk-permutation workaround
// against FanStore's global view for the same training run.
func BenchmarkAblationChunked(b *testing.B) {
	ch := trainsim.Chunked{
		Base:         trainsim.Config{App: cluster.ResNet50, Clust: cluster.CPU, Nodes: 64, Ratio: 1},
		PermuteEvery: 5,
		DatasetBytes: 140 << 30,
	}
	var chunked, global time.Duration
	for i := 0; i < b.N; i++ {
		chunked = ch.TrainTime(90, 1_300_000)
		global = ch.GlobalViewTrainTime(90, 1_300_000)
	}
	b.ReportMetric(global.Seconds()/chunked.Seconds(), "global/chunked")
}
