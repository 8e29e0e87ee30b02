// Distributed training over FanStore: a complete data-parallel training
// loop shaped like the paper's workloads — per-epoch shuffling with a
// global dataset view, asynchronous I/O (a prefetch pipeline, Fig. 5b),
// remote fetches for files another node holds, gradient "allreduce", and
// per-epoch checkpoints through the write path.
//
// The "model" is a toy (a running checksum stands in for the forward and
// backward passes) but every byte of training data flows through the
// same FanStore machinery a real framework would use.
package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"log"
	"math/rand"
	"os"
	"time"

	"fanstore"
	"fanstore/internal/dataset"
	"fanstore/internal/prefetch"
)

const (
	ranks     = 4
	epochs    = 3
	batchSize = 8 // files per rank per iteration
	numFiles  = 64
)

func main() {
	log.SetFlags(0)

	// Prepare the dataset once (the shared-filesystem step of §V-B):
	// EM-like microscopy files, compressed with lzsse8, one partition
	// per node, plus a broadcast validation set every node holds.
	gen := dataset.Generator{Kind: dataset.EM, Seed: 9, Size: 64 << 10}
	var inputs []fanstore.InputFile
	var trainPaths []string
	for _, f := range gen.Files(numFiles) {
		inputs = append(inputs, fanstore.InputFile{Path: f.Path, Data: f.Data})
		trainPaths = append(trainPaths, f.Path)
	}
	val := dataset.Generator{Kind: dataset.EM, Seed: 10, Size: 64 << 10}
	for i, f := range val.Files(8) {
		inputs = append(inputs, fanstore.InputFile{
			Path:      fmt.Sprintf("val/%02d.tif", i),
			Data:      f.Data,
			Broadcast: true,
		})
	}
	bundle, err := fanstore.Pack(inputs, fanstore.BuildOptions{
		Partitions: ranks,
		Compressor: "lzsse8",
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %d train + 8 val files, ratio %.2fx, %d partitions\n",
		numFiles, bundle.Ratio(), ranks)

	err = fanstore.Run(ranks, func(c *fanstore.Comm) error {
		node, err := fanstore.Mount(c,
			[][]byte{bundle.Scatter[c.Rank()]}, bundle.Broadcast,
			fanstore.Options{CacheBytes: 8 << 20})
		if err != nil {
			return err
		}
		defer node.Close()

		itersPerEpoch := numFiles / (batchSize * ranks) // §II-A identity
		var weights uint32                              // the "model"
		start := time.Now()

		for epoch := 0; epoch < epochs; epoch++ {
			// Every rank shuffles the SAME global view with the same
			// seed, then takes its stripe — the global dataset view that
			// preserves model accuracy (§III).
			order := rand.New(rand.NewSource(int64(epoch))).Perm(numFiles)
			shuffled := make([]string, numFiles)
			for i, idx := range order {
				shuffled[i] = trainPaths[idx]
			}

			// Asynchronous I/O (Fig. 5b): the prefetch pipeline reads
			// and decompresses iteration i+1's batch while iteration i
			// computes, with the paper's 4 I/O threads per process. A
			// batch's bytes are valid until the next Next or Stop, which
			// hand them back to the buffer pool the reads draw from:
			// digest a batch inside its iteration, or copy what must
			// outlive it.
			pipe := prefetch.New(node,
				prefetch.RangeSampler(shuffled, batchSize, c.Rank(), ranks),
				prefetch.Options{Workers: 4, Depth: 2})

			for it := 0; it < itersPerEpoch; it++ {
				b, ok, err := pipe.Next()
				if err != nil {
					pipe.Stop()
					return err
				}
				if !ok {
					break
				}
				// "Forward/backward": digest the batch.
				var grad uint32
				for _, img := range b.Data {
					grad ^= crc32.ChecksumIEEE(img)
				}
				// "Allreduce": exchange gradients with every rank.
				parts, err := c.Allgather([]byte{
					byte(grad), byte(grad >> 8), byte(grad >> 16), byte(grad >> 24)})
				if err != nil {
					return err
				}
				for _, p := range parts {
					weights ^= uint32(p[0]) | uint32(p[1])<<8 | uint32(p[2])<<16 | uint32(p[3])<<24
				}
			}
			pipe.Stop()

			// Validation from the broadcast partition (local everywhere).
			for i := 0; i < 8; i++ {
				if _, err := node.ReadFile(fmt.Sprintf("val/%02d.tif", i)); err != nil {
					return err
				}
			}

			// Checkpoint via the write path, named by epoch (§II-B3).
			ckpt := fmt.Sprintf("ckpt/rank%d-epoch%03d.bin", c.Rank(), epoch)
			if err := node.WriteFile(ckpt, []byte(fmt.Sprintf("weights=%08x", weights))); err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			if c.Rank() == 0 {
				fmt.Printf("epoch %d done: weights=%08x\n", epoch, weights)
			}
		}

		// The rank's registry through the one summary, files/s included;
		// one buffered write, so in-process ranks do not interleave.
		var out bytes.Buffer
		fmt.Fprintf(&out, "rank %d:\n", c.Rank())
		fanstore.WriteSummary(&out, node.Registry().Snapshot(), time.Since(start))
		os.Stdout.Write(out.Bytes())
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
}
