package fanstore

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"fanstore/internal/dataset"
	"fanstore/internal/decomp"
	"fanstore/internal/mpi"
	"fanstore/internal/pack"
	"fanstore/internal/prefetch"
)

// TestPipelineRecyclesDeliveredBuffers drives the delivery contract end
// to end: ReadFile fills a buffer from the decomp pool and the pipeline
// hands each batch's buffers back when the consumer moves on. Two ranks
// over the in-process mailbox read 64 KiB files through the epoch plan,
// after a pass that puts every remote file in a cache that holds them
// all, so every read is a cache hit or a zero-copy local read plus the
// copy-out. Every delivered file must be byte-exact (CRC): a buffer
// recycled while its batch is still being read shows up here, and make
// overlap runs the four-worker row under -race twenty times, since
// whether it does depends on the schedule. Outside -race the timed
// epochs must allocate at most a sixteenth of a file per delivered file;
// copying out into fresh memory costs a whole file each.
func TestPipelineRecyclesDeliveredBuffers(t *testing.T) {
	const ranks, size, batch, warm, timed = 2, 64 << 10, 4, 2, 4
	// Stop leaves each epoch's last batch to the GC: at 512 files that is
	// a sixty-fourth of what a rank reads. Under -race, where only the
	// bytes are checked, a quarter of the files keeps twenty runs short.
	files := 512
	if raceDetectorEnabled {
		files = 128
	}
	// A training step slower than a batch's reads keeps the pipeline
	// full from the first epoch: the pool reaches its high-water mark
	// before the window, so the window sees the steady state.
	const step = 500 * time.Microsecond
	g := dataset.Generator{Kind: dataset.ImageNet, Seed: 34, Size: size}
	in := make([]pack.InputFile, files)
	paths := make([]string, files)
	crcs := make(map[string]uint32, files)
	for i := range in {
		f := g.File(i, files)
		in[i] = pack.InputFile{Path: f.Path, Data: f.Data}
		paths[i], crcs[f.Path] = f.Path, crc32.ChecksumIEEE(f.Data)
	}
	bundle, err := pack.Build(in, pack.BuildOptions{Partitions: ranks, Compressor: "memcpy"})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var before, after runtime.MemStats
			err := mpi.Run(ranks, func(c *mpi.Comm) error {
				node, err := Mount(c, [][]byte{bundle.Scatter[c.Rank()]}, nil, Options{CacheBytes: int64(2 * files * size)})
				if err != nil {
					return err
				}
				defer node.Close()
				for _, p := range paths { // fill the cache with every remote file
					data, err := node.ReadFile(p)
					if err != nil {
						return err
					}
					decomp.PutBuf(data)
				}
				for e := 0; e < warm+timed; e++ {
					if e == warm {
						if err := c.Barrier(); err != nil {
							return err
						}
						if c.Rank() == 0 {
							runtime.GC() // set-up garbage must not bring a collection into the window
							runtime.ReadMemStats(&before)
						}
					}
					shuffled := make([]string, files)
					for i, idx := range rand.New(rand.NewSource(int64(e))).Perm(files) {
						shuffled[i] = paths[idx]
					}
					sampler := prefetch.RangeSampler(shuffled, batch, c.Rank(), ranks)
					sched := prefetch.NewScheduler(node, prefetch.BuildPlan(sampler, node), prefetch.SchedOptions{})
					pipe := prefetch.New(node, sampler, prefetch.Options{Workers: workers, Depth: 2, Scheduler: sched})
					for {
						b, ok, err := pipe.Next()
						if err != nil {
							pipe.Stop()
							return err
						}
						if !ok {
							break
						}
						time.Sleep(step)
						for i, data := range b.Data {
							if crc32.ChecksumIEEE(data) != crcs[b.Paths[i]] {
								pipe.Stop()
								return fmt.Errorf("rank %d epoch %d: %s: wrong bytes", c.Rank(), e, b.Paths[i])
							}
						}
					}
					pipe.Stop()
				}
				if err := c.Barrier(); err != nil {
					return err
				}
				if c.Rank() == 0 {
					runtime.ReadMemStats(&after)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if raceDetectorEnabled {
				return // the race detector drops sync.Pool puts at random
			}
			delivered := uint64(timed * files)
			if per := (after.TotalAlloc - before.TotalAlloc) / delivered; per > size/16 {
				t.Errorf("warm epochs allocated %d B per delivered %d B file, want <= %d", per, size, size/16)
			}
		})
	}
}
