// Package experiments regenerates every table and figure of the paper's
// evaluation (§VII) from this reproduction: live measurements of the
// codecs, the FanStore read path and the TFRecord baseline on this host,
// composed with the calibrated cluster/device/fabric models per
// DESIGN.md. Each experiment writes a plain-text block comparing the
// paper's reported values with the reproduced ones; cmd/experiments and
// the root-level benchmarks drive these functions, and EXPERIMENTS.md
// records a captured run.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
	"time"

	"fanstore/internal/cluster"
	"fanstore/internal/dataset"
	"fanstore/internal/selector"
)

// Options tunes experiment cost.
type Options struct {
	// Quick shrinks sample sizes and codec sweeps for CI-speed runs.
	Quick bool
	// Seed makes dataset generation reproducible.
	Seed int64
}

// Experiment is one regenerable table or figure.
type Experiment struct {
	ID    string // "table3", "fig7", ...
	Title string
	Run   func(w io.Writer, opt Options) error
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig1", "Fig. 1: efficiency vs. node count (capacity and batch bounds)", Fig1},
		{"fig6", "Fig. 6: FanStore vs TFRecord read throughput", Fig6},
		{"table3", "Table III: POSIX-compliant solution read performance", Table3},
		{"fig7", "Fig. 7: compressor sweep on TIF and NPZ (ratio vs decompression)", Fig7},
		{"table4", "Table IV: compression ratios on the six datasets", Table4},
		{"table5", "Table V: inputs to the compressor selection algorithm", Table5},
		{"table6", "Table VI: FanStore performance for different file sizes", Table6},
		{"table7", "Table VII: selected compressors for three cases", Table7},
		{"fig8", "Fig. 8: application performance under different compressors", Fig8},
		{"fig9", "Fig. 9: SRGAN and ResNet-50 weak scaling", Fig9},
		{"ablations", "Ablations: cache policy, ring replication, replica routing, RAM metadata, chunking", Ablations},
	}
}

// ByID finds one experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// samples generates n sample payloads for a dataset at the given size.
func samples(kind dataset.Kind, seed int64, n, size int) [][]byte {
	g := dataset.Generator{Kind: kind, Seed: seed, Size: size}
	out := make([][]byte, n)
	for i := range out {
		out[i] = g.Bytes(i)
	}
	return out
}

// appSamples produces sample files for an application's dataset with
// sizes scaled down in quick mode.
func appSamples(app cluster.App, opt Options) ([][]byte, int) {
	kind, _ := dataset.KindByName(app.FileKind)
	// Samples stay small — per-file costs rescale linearly to the app's
	// real file size in scaledCandidate.
	size := int(app.FileSizeBytes())
	if size > 256<<10 {
		size = 256 << 10
	}
	if opt.Quick && size > 64<<10 {
		size = 64 << 10
	}
	n := 4
	if kind == dataset.Tokamak {
		n = 32
	}
	return samples(kind, opt.Seed, n, size), size
}

// scaledCandidate measures a codec on sample files and rescales the
// per-file decompression cost to the application's real file size (cost
// is linear in bytes for every codec family here).
func scaledCandidate(name string, sampleSet [][]byte, sampleSize int, targetSize int64) (selector.Candidate, error) {
	c, err := selector.MeasureCandidate(name, sampleSet)
	if err != nil {
		return c, err
	}
	if sampleSize > 0 && targetSize > 0 {
		c.DecompressPerFile = time.Duration(float64(c.DecompressPerFile) * float64(targetSize) / float64(sampleSize))
	}
	return c, nil
}

// paperCandidates are the compressors Table VII evaluates per case.
var paperCandidates = map[string][]string{
	"SRGAN-GTX":  {"lzsse8", "lz4hc", "brotli", "zling", "lzma"},
	"FRNN-CPU":   {"lzf", "lzsse8", "brotli"},
	"SRGAN-V100": {"lz4fast", "lz4hc", "brotli", "lzma"},
}

// tw builds a tab-aligned writer.
func tw(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
}

// us formats a duration in microseconds for table cells.
func us(d time.Duration) string {
	return fmt.Sprintf("%.0f", float64(d)/float64(time.Microsecond))
}

// sortCandidates orders by decompression cost.
func sortCandidates(cands []selector.Candidate) {
	sort.Slice(cands, func(i, j int) bool {
		return cands[i].DecompressPerFile < cands[j].DecompressPerFile
	})
}
