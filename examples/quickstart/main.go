// Quickstart: pack a small dataset into FanStore's compressed
// representation, mount it across four in-process ranks, and exercise the
// POSIX-style surface — the end-to-end flow a training job uses.
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"

	"fanstore"
	"fanstore/internal/dataset"
)

func main() {
	log.SetFlags(0)

	// 1. Generate a toy dataset (synthetic stand-in for real training
	//    files) and pack it: 4 scatter partitions compressed with the
	//    paper's default Intel-side compressor, lzsse8.
	gen := dataset.Generator{Kind: dataset.Language, Seed: 1, Size: 16 << 10}
	var inputs []fanstore.InputFile
	for i, f := range gen.Files(32) {
		_ = i
		inputs = append(inputs, fanstore.InputFile{Path: f.Path, Data: f.Data})
	}
	bundle, err := fanstore.Pack(inputs, fanstore.BuildOptions{
		Partitions: 4,
		Compressor: "lzsse8",
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("packed %d files, compression ratio %.2fx\n", len(inputs), bundle.Ratio())

	// 2. Launch four ranks ("nodes"); each mounts its own partition.
	//    Mount exchanges metadata collectively, so afterwards every rank
	//    resolves every path from RAM.
	err = fanstore.Run(4, func(c *fanstore.Comm) error {
		node, err := fanstore.Mount(c, [][]byte{bundle.Scatter[c.Rank()]}, nil, fanstore.Options{})
		if err != nil {
			return err
		}
		defer node.Close()

		// 3. POSIX-style access: readdir, stat, open/read.
		entries, err := node.ReadDir("language")
		if err != nil {
			return err
		}
		first := "language/" + entries[0].Name
		info, err := node.Stat(first)
		if err != nil {
			return err
		}
		data, err := node.ReadFile(first)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			fmt.Printf("rank 0: %d files in language/; %s is %d bytes; first words: %q\n",
				len(entries), first, info.Size, string(data[:40]))
		}

		// Every rank reads every file — local ones from its partition,
		// remote ones fetched (compressed) over the interconnect.
		for _, e := range entries {
			if _, err := node.ReadFile("language/" + e.Name); err != nil {
				return err
			}
		}

		// 4. Write an output file (multi-read / single-write model).
		ckpt := fmt.Sprintf("ckpt/epoch0-rank%d.bin", c.Rank())
		if err := node.WriteFile(ckpt, []byte("model weights")); err != nil {
			return err
		}

		// 5. Every number the node keeps lives in its registry; WriteSummary
		// is the one read-out (one buffered write per in-process rank).
		var out bytes.Buffer
		fmt.Fprintf(&out, "rank %d:\n", c.Rank())
		fanstore.WriteSummary(&out, node.Registry().Snapshot(), 0)
		os.Stdout.Write(out.Bytes())
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
}
