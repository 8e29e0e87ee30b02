// Command fanstore-prep is the data preparation tool of §V-B: it packages
// a dataset into FanStore's compressed partitioned representation
// (Table I), ready to be staged to node-local storage and mounted.
//
// It can pack a real directory tree:
//
//	fanstore-prep -data /path/to/dataset -partitions 8 -compressor lzsse8 -out ./packed
//
// or generate and pack one of the paper's synthetic datasets:
//
//	fanstore-prep -synthetic EM -files 64 -partitions 8 -out ./packed
//
// Directories listed in -broadcast are replicated to every node
// (validation data) instead of scattered.
package main

import (
	"flag"
	"fmt"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"strings"

	"fanstore/internal/dataset"
	store "fanstore/internal/fanstore"
	"fanstore/internal/pack"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fanstore-prep: ")
	var (
		dataDir    = flag.String("data", "", "directory tree to pack")
		synthetic  = flag.String("synthetic", "", "synthetic dataset: EM|Tokamak|Lung|Astro|ImageNet|Language")
		files      = flag.Int("files", 32, "file count for -synthetic")
		size       = flag.Int("size", 0, "file size override for -synthetic (bytes)")
		seed       = flag.Int64("seed", 42, "generator seed for -synthetic")
		partitions = flag.Int("partitions", 4, "scatter partition count")
		compressor = flag.String("compressor", "lzsse8", "codec configuration or paper alias")
		workers    = flag.Int("workers", 0, "compression threads (0 = all cores)")
		broadcast  = flag.String("broadcast", "", "comma-separated dir prefixes replicated to every node")
		out        = flag.String("out", "packed", "output directory")
		planNodes  = flag.Int("plan-nodes", 0, "also print a placement plan for this many nodes")
		planCapMB  = flag.Int64("plan-capacity-mb", 0, "per-node capacity for -plan-nodes (MiB)")
	)
	flag.Parse()

	var inputs []pack.InputFile
	var err error
	switch {
	case *dataDir != "" && *synthetic != "":
		log.Fatal("use either -data or -synthetic, not both")
	case *dataDir != "":
		inputs, err = loadDir(*dataDir)
	case *synthetic != "":
		inputs, err = generate(*synthetic, *seed, *files, *size)
	default:
		log.Fatal("one of -data or -synthetic is required")
	}
	if err != nil {
		log.Fatal(err)
	}

	var bdirs []string
	if *broadcast != "" {
		bdirs = strings.Split(*broadcast, ",")
	}
	bundle, err := pack.Build(inputs, pack.BuildOptions{
		Partitions:    *partitions,
		Compressor:    *compressor,
		Workers:       *workers,
		BroadcastDirs: bdirs,
	})
	if err != nil {
		log.Fatal(err)
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}
	for i, blob := range bundle.Scatter {
		name := filepath.Join(*out, fmt.Sprintf("part-%04d.fst", i))
		if err := os.WriteFile(name, blob, 0o644); err != nil {
			log.Fatal(err)
		}
	}
	if bundle.Broadcast != nil {
		if err := os.WriteFile(filepath.Join(*out, "broadcast.fst"), bundle.Broadcast, 0o644); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("packed %d files into %d partition(s)", len(inputs), len(bundle.Scatter))
	if bundle.Broadcast != nil {
		fmt.Printf(" + broadcast")
	}
	fmt.Printf("\nraw %d bytes -> packed %d bytes (ratio %.2fx) with %s\n",
		bundle.RawBytes, bundle.PackedBytes, bundle.Ratio(), *compressor)

	// Placement preview (§IV-C1): which node loads which partitions.
	if *planNodes > 0 {
		capacity := *planCapMB << 20
		if capacity <= 0 {
			log.Fatal("-plan-nodes requires -plan-capacity-mb")
		}
		sizes := make([]int64, len(bundle.Scatter))
		for i, blob := range bundle.Scatter {
			sizes[i] = int64(len(blob))
		}
		plan, err := store.PlanPlacement(sizes, *planNodes, capacity)
		if err != nil {
			log.Fatalf("placement: %v", err)
		}
		for n := 0; n < *planNodes; n++ {
			fmt.Printf("node %d: owns %v replicates %v\n", n, plan.Own[n], plan.Replicas[n])
		}
	}
}

// loadDir walks a directory tree into input files with paths relative to
// its root.
func loadDir(root string) ([]pack.InputFile, error) {
	var out []pack.InputFile
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		out = append(out, pack.InputFile{Path: filepath.ToSlash(rel), Data: data})
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no files under %s", root)
	}
	return out, nil
}

func generate(name string, seed int64, files, size int) ([]pack.InputFile, error) {
	kind, ok := dataset.KindByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown synthetic dataset %q", name)
	}
	g := dataset.Generator{Kind: kind, Seed: seed, Size: size}
	out := make([]pack.InputFile, files)
	for i := range out {
		f := g.File(i, files)
		out[i] = pack.InputFile{Path: f.Path, Data: f.Data}
	}
	return out, nil
}
