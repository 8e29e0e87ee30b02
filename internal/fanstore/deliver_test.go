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
// hands each batch's buffers back when the consumer moves on, and the
// last one at Stop. Two ranks over the in-process mailbox read through
// the epoch plan, which is built, scheduled and piped anew every epoch as
// a training loop does. Every delivered file must be byte-exact (CRC): a
// buffer recycled while its batch is still being read shows up here, and
// make overlap runs the four-worker row under -race twenty times, since
// whether it does depends on the schedule. Outside -race the timed epochs
// must stay under each row's allocation bound per delivered file.
//
// The workers rows read 64 KiB files after a pass that puts every remote
// file in a cache that holds them all, so every read is a cache hit or a
// zero-copy local read plus the copy-out; copying out into fresh memory
// would cost a whole file each, and the bound is a sixteenth of one. The
// small-files row is the benchmark's train_small loop (4 KiB lz4hc files,
// a cache of a quarter of them, one worker): every remote file is
// planned, fetched, decoded and staged, and the bound is the per-file
// bookkeeping of that — plan, flights, cache entries, staging calls.
func TestPipelineRecyclesDeliveredBuffers(t *testing.T) {
	const ranks = 2
	type row struct {
		name            string
		kind            dataset.Kind
		compressor      string
		size, files     int
		batch, workers  int
		cacheFiles      int           // cache capacity in files
		prefill         bool          // read every file once before the first epoch
		step            time.Duration // the training step between batches
		warm, timed     int           // epochs
		perFile         uint64        // allocation bound, bytes per delivered file
		filesUnderRaces int
	}
	// A training step slower than a batch's reads keeps the workers rows'
	// pipeline full from the first epoch: the pool reaches its high-water
	// mark before the window, so the window sees the steady state.
	big := row{kind: dataset.ImageNet, compressor: "memcpy", size: 64 << 10, files: 512, batch: 4,
		prefill: true, step: 500 * time.Microsecond, warm: 2, timed: 4, perFile: 4 << 10, filesUnderRaces: 128}
	big.cacheFiles = 2 * big.files
	rows := []row{big, big, {
		name: "small-files", kind: dataset.Tokamak, compressor: "lz4hc", size: 4 << 10, files: 4096, batch: 64,
		workers: 1, cacheFiles: 1024, warm: 1, timed: 8, perFile: 400, filesUnderRaces: 512,
	}}
	rows[0].name, rows[0].workers = "workers=1", 1
	rows[1].name, rows[1].workers = "workers=4", 4
	for _, tc := range rows {
		t.Run(tc.name, func(t *testing.T) {
			files := tc.files
			if raceDetectorEnabled {
				// Only the bytes are checked under -race: fewer files keep
				// twenty runs short.
				files = tc.filesUnderRaces
			}
			g := dataset.Generator{Kind: tc.kind, Seed: 34, Size: tc.size}
			in := make([]pack.InputFile, files)
			paths := make([]string, files)
			crcs := make(map[string]uint32, files)
			for i := range in {
				f := g.File(i, files)
				in[i] = pack.InputFile{Path: f.Path, Data: f.Data}
				paths[i], crcs[f.Path] = f.Path, crc32.ChecksumIEEE(f.Data)
			}
			bundle, err := pack.Build(in, pack.BuildOptions{Partitions: ranks, Compressor: tc.compressor})
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			err = mpi.Run(ranks, func(c *mpi.Comm) error {
				node, err := Mount(c, [][]byte{bundle.Scatter[c.Rank()]}, nil, Options{CacheBytes: int64(tc.cacheFiles * tc.size)})
				if err != nil {
					return err
				}
				defer node.Close()
				for _, p := range paths {
					if !tc.prefill {
						break
					}
					data, err := node.ReadFile(p)
					if err != nil {
						return err
					}
					decomp.PutBuf(data)
				}
				for e := 0; e < tc.warm+tc.timed; e++ {
					if e == tc.warm {
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
					sampler := prefetch.RangeSampler(shuffled, tc.batch, c.Rank(), ranks)
					sched := prefetch.NewScheduler(node, prefetch.BuildPlan(sampler, node), prefetch.SchedOptions{AdmissionSource: node.AdmissionBytes})
					pipe := prefetch.New(node, sampler, prefetch.Options{Workers: tc.workers, Depth: 2, Scheduler: sched})
					for {
						b, ok, err := pipe.Next()
						if err != nil {
							pipe.Stop()
							return err
						}
						if !ok {
							break
						}
						time.Sleep(tc.step)
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
			delivered := uint64(tc.timed * files)
			per := (after.TotalAlloc - before.TotalAlloc) / delivered
			t.Logf("%d B allocated per delivered file", per)
			if per > tc.perFile {
				t.Errorf("warm epochs allocated %d B per delivered %d B file, want <= %d", per, tc.size, tc.perFile)
			}
		})
	}
}
