// Command compbench is the lzbench-equivalent sweep of §VII-D: it
// measures every registered (codec, option, filter) configuration — or a
// named subset — on a synthetic dataset, reporting compression ratio and
// decompression cost. Its output is the raw material of Fig. 7 and
// Table IV.
//
//	compbench -dataset EM -size 262144
//	compbench -dataset Tokamak -codecs lzsse8,lz4hc,lzma,xz
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"fanstore/internal/codec"
	"fanstore/internal/dataset"
	"fanstore/internal/lossy"
	"fanstore/internal/selector"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("compbench: ")
	var (
		dsName = flag.String("dataset", "EM", "EM|Tokamak|Lung|Astro|ImageNet|Language")
		files  = flag.Int("files", 3, "sample file count")
		size   = flag.Int("size", 256<<10, "sample file size (bytes)")
		seed   = flag.Int64("seed", 42, "generator seed")
		names  = flag.String("codecs", "", "comma-separated configs/aliases; empty = whole registry")
		sortBy = flag.String("sort", "ratio", "sort key: ratio|speed|name")
		lossyF = flag.Bool("lossy", false, "sweep the lossy SZ/ZFP extension on float32 data instead")
	)
	flag.Parse()

	kind, ok := dataset.KindByName(*dsName)
	if !ok {
		log.Fatalf("unknown dataset %q", *dsName)
	}
	sz := *size
	if kind == dataset.Tokamak && !flagSet("size") {
		sz = 1200 // paper-scale tiny records
	}
	g := dataset.Generator{Kind: kind, Seed: *seed, Size: sz}
	samples := make([][]byte, *files)
	for i := range samples {
		samples[i] = g.Bytes(i)
	}

	if *lossyF {
		sweepLossy(kind, samples)
		return
	}

	var list []string
	if *names != "" {
		list = strings.Split(*names, ",")
	} else {
		for _, cfg := range codec.Registry() {
			list = append(list, cfg.Name)
		}
	}
	fmt.Printf("dataset %s: %d files x %d bytes; %d configurations\n", kind, *files, sz, len(list))

	start := time.Now()
	cands := selector.MeasureAll(list, samples)
	switch *sortBy {
	case "ratio":
		sort.Slice(cands, func(i, j int) bool { return cands[i].Ratio > cands[j].Ratio })
	case "name":
		sort.Slice(cands, func(i, j int) bool { return cands[i].Name < cands[j].Name })
	case "speed":
		// MeasureAll already sorts by decompression cost.
	default:
		log.Fatalf("unknown sort key %q", *sortBy)
	}

	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintf(w, "config\tratio\tdecompress us/file\tdecompress MB/s\n")
	for _, c := range cands {
		mbps := float64(sz) / 1e6 / c.DecompressPerFile.Seconds()
		fmt.Fprintf(w, "%s\t%.2f\t%.1f\t%.0f\n",
			c.Name, c.Ratio, float64(c.DecompressPerFile)/float64(time.Microsecond), mbps)
	}
	w.Flush()
	fmt.Printf("swept %d configurations in %v\n", len(cands), time.Since(start).Round(time.Millisecond))
}

// sweepLossy reports the §VIII future-work extension: error-bounded SZ
// and fixed-rate ZFP on the dataset's bytes viewed as float32 arrays.
func sweepLossy(kind dataset.Kind, samples [][]byte) {
	var src []float32
	for _, s := range samples {
		for i := 0; i+4 <= len(s); i += 4 {
			bits := uint32(s[i]) | uint32(s[i+1])<<8 | uint32(s[i+2])<<16 | uint32(s[i+3])<<24
			v := math.Float32frombits(bits)
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) || math.Abs(float64(v)) > 1e9 {
				v = 0 // container header bytes decode as junk floats
			}
			src = append(src, v)
		}
	}
	fmt.Printf("lossy sweep on %s: %d float32 values\n", kind, len(src))
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintf(w, "codec\tratio\tmax abs error\tdecompress us\n")
	codecs := []lossy.FloatCodec{
		lossy.SZ{ErrBound: 1e-4}, lossy.SZ{ErrBound: 1e-2}, lossy.SZ{ErrBound: 1},
		lossy.ZFP{Rate: 8}, lossy.ZFP{Rate: 12}, lossy.ZFP{Rate: 16}, lossy.ZFP{Rate: 24},
	}
	for _, c := range codecs {
		coded, err := c.Compress(nil, src)
		if err != nil {
			log.Fatalf("%s: %v", c.Name(), err)
		}
		start := time.Now()
		got, err := c.Decompress(nil, coded)
		if err != nil {
			log.Fatalf("%s: %v", c.Name(), err)
		}
		elapsed := time.Since(start)
		maxErr := 0.0
		for i := range src {
			d := math.Abs(float64(src[i]) - float64(got[i]))
			if d > maxErr {
				maxErr = d
			}
		}
		fmt.Fprintf(w, "%s\t%.2f\t%.3g\t%.0f\n",
			c.Name(), lossy.Ratio(len(src), len(coded)), maxErr,
			float64(elapsed)/float64(time.Microsecond))
	}
	w.Flush()
}

func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}
