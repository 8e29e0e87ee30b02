// Command fanstore-select runs the compressor selection algorithm of
// §VI-B for an application/cluster pair: it measures candidate codecs on
// the application's dataset, derives the per-file decompression budget
// from Equations 1-3 and the cluster's FanStore performance, and reports
// the feasibility table plus the selected compressor (Table VII).
//
//	fanstore-select -case srgan-gtx
//	fanstore-select -case frnn-cpu -codecs lzf,lzsse8,brotli
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"fanstore/internal/cluster"
	"fanstore/internal/dataset"
	"fanstore/internal/selector"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fanstore-select: ")
	var (
		caseName = flag.String("case", "srgan-gtx", "srgan-gtx|frnn-cpu|srgan-v100|resnet-gtx|resnet-cpu")
		codecs   = flag.String("codecs", "", "override candidate list (comma separated)")
		seed     = flag.Int64("seed", 42, "generator seed")
	)
	flag.Parse()

	tc, ok := cluster.Cases[strings.ToLower(*caseName)]
	if !ok {
		log.Fatalf("unknown case %q", *caseName)
	}
	kind, _ := dataset.KindByName(tc.App.FileKind)
	names := tc.Candidates
	if *codecs != "" {
		names = strings.Split(*codecs, ",")
	}

	// Sample the application's dataset at a measurement-friendly size;
	// per-file costs rescale linearly to the app's real file size.
	fileSize := tc.App.FileSizeBytes()
	sampleSize := int(fileSize)
	if sampleSize > 256<<10 {
		sampleSize = 256 << 10
	}
	n := 4
	if kind == dataset.Tokamak {
		n = 32
	}
	g := dataset.Generator{Kind: kind, Seed: *seed, Size: sampleSize}
	samples := make([][]byte, n)
	for i := range samples {
		samples[i] = g.Bytes(i)
	}

	var cands []selector.Candidate
	for _, name := range names {
		c, err := selector.MeasureCandidate(strings.TrimSpace(name), samples)
		if err != nil {
			log.Fatal(err)
		}
		c.DecompressPerFile = time.Duration(float64(c.DecompressPerFile) * float64(fileSize) / float64(sampleSize))
		cands = append(cands, c)
	}

	nominal := 2.0
	for _, c := range cands {
		if c.Ratio > nominal {
			nominal = c.Ratio
		}
	}
	perf := tc.Cluster.FanStorePerf(int64(float64(fileSize) / nominal))
	prof := tc.App.SelectorProfile()

	fmt.Printf("case %s: %s on %s, %s I/O, T_iter=%v, C_batch=%d, S'_batch=%.1f MB\n",
		*caseName, tc.App.Name, tc.Cluster.Name, prof.IO, prof.TIter, prof.CBatch, prof.SBatchMB)
	fmt.Printf("FanStore perf at ~%d-byte compressed files: %.0f files/s, %.0f MB/s\n\n",
		int64(float64(fileSize)/nominal), perf.TptRead, perf.BdwRead)

	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintf(w, "compressor\tdecom_cost (us/file)\tcom_ratio\tbudget (us)\tfeasible\n")
	for _, ch := range selector.Evaluate(prof, perf, cands) {
		fmt.Fprintf(w, "%s\t%.0f\t%.2f\t%.0f\t%v\n",
			ch.Name, float64(ch.DecompressPerFile)/float64(time.Microsecond), ch.Ratio,
			float64(ch.PerFileBudget)/float64(time.Microsecond), ch.Feasible)
	}
	w.Flush()

	if best, ok := selector.Select(prof, perf, cands); ok {
		fmt.Printf("\nselected: %s (ratio %.2f, %.0f us/file)\n",
			best.Name, best.Ratio, float64(best.DecompressPerFile)/float64(time.Microsecond))
	} else {
		fmt.Printf("\nselected: none feasible — keep data uncompressed or add nodes\n")
	}
}
