package fanstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"fanstore/internal/dataset"
	"fanstore/internal/mpi"
	"fanstore/internal/pack"
	"fanstore/internal/prefetch"
)

// TestPlanDecidesEvictionLive runs the benchmark's headline shape small:
// 2 ranks over the in-process mailbox, 512 files, a cache of a quarter of
// the data (one shard at this size), four shuffled epochs through BuildPlan,
// NewScheduler and the pipeline, with a 2 ms training step per iteration —
// a consumer that only reads outruns any stager on a loaded box, and then
// every count below measures the race, not the cache. The plan must not
// turn against itself: what it staged is still there when the consumer
// arrives (under 1 % of the plan's items staged and gone unread), so few
// items are fetched on demand (under 20 %). Before the cache evicted by
// next use and admission was true per shard (811595e) this run lost
// 71–75 % of what it staged and fetched 75–83 % of its items on demand:
// the stager laid the whole epoch into a FIFO.
//
// Refusals are logged. Striped in two, this cache refused 6–12 % of the
// plan: a consumer slower than the stager keeps admission at its edge,
// and admission assumes a batch splits evenly over the shards (these
// paths hash 53:47), so the part of a batch that overfills the fuller
// shard is dropped (ROADMAP item 4; the benchmark's caches have two
// shards on two Ps, its consumer keeps up, room grows while a batch is in
// flight, and it refuses under 0.3 %). In one shard it refuses none. Every
// byte is checked, and the end state is quiet: no pin, and nothing staged
// once an empty plan replaces the last.
func TestPlanDecidesEvictionLive(t *testing.T) {
	const ranks, files, size, batch, epochs = 2, 512, 2 << 10, 8, 4
	const step = 2 * time.Millisecond
	// Stored raw, as train_raw stores it: compressing is most of a -race run.
	g := dataset.Generator{Kind: dataset.ImageNet, Seed: 21, Size: size}
	in := make([]pack.InputFile, files)
	paths := make([]string, files)
	want := make(map[string][]byte, files)
	for i := range in {
		f := g.File(i, files)
		in[i] = pack.InputFile{Path: f.Path, Data: f.Data}
		paths[i], want[f.Path] = f.Path, f.Data
	}
	bundle, err := pack.Build(in, pack.BuildOptions{Partitions: ranks, Compressor: "memcpy"})
	if err != nil {
		t.Fatal(err)
	}
	err = mpi.Run(ranks, func(c *mpi.Comm) error {
		node, err := Mount(c, [][]byte{bundle.Scatter[c.Rank()]}, nil,
			Options{CacheBytes: files * size / 4})
		if err != nil {
			return err
		}
		defer node.Close()
		for e := 0; e < epochs; e++ {
			shuffled := make([]string, files)
			for i, idx := range rand.New(rand.NewSource(int64(e))).Perm(files) {
				shuffled[i] = paths[idx]
			}
			sampler := prefetch.RangeSampler(shuffled, batch, c.Rank(), ranks)
			sched := prefetch.NewScheduler(node, prefetch.BuildPlan(sampler, node),
				prefetch.SchedOptions{Metrics: node.Registry()})
			pipe := prefetch.New(node, sampler, prefetch.Options{Workers: 1, Depth: 2, Scheduler: sched})
			for {
				b, ok, err := pipe.Next()
				if err != nil {
					pipe.Stop()
					return err
				}
				if !ok {
					break
				}
				time.Sleep(step) // the training step
				for i, data := range b.Data {
					if !bytes.Equal(data, want[b.Paths[i]]) {
						pipe.Stop()
						return fmt.Errorf("rank %d epoch %d: %s: wrong bytes", c.Rank(), e, b.Paths[i])
					}
				}
			}
			pipe.Stop()
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		r := read(t, node)
		items := r.counter("prefetch.plan.items")
		if lost := r.counter("prefetch.plan.staged") - r.counter("fanstore.cache.prefetched_opens"); lost*100 > items {
			t.Errorf("rank %d: %d of %d plan items staged and gone before their read (> 1 %%)\n%v", c.Rank(), lost, items, r)
		}
		demand := r.counter("fanstore.opens.remote")
		if demand*5 > items {
			t.Errorf("rank %d: %d of %d plan items fetched on demand (> 20 %%)\n%v", c.Rank(), demand, items, r)
		}
		t.Logf("rank %d: of %d plan items %d fetched on demand, %d refused by a full shard", c.Rank(), items,
			demand, r.counter("fanstore.cache.stage_refused"))
		// Occupancy is on the read-out, set when a snapshot looks: with the
		// whole namespace expected, what is resident is retained; with an
		// empty plan, nothing is.
		ids := make([]uint32, 0, len(paths))
		for _, p := range paths {
			if id, _, _, ok := node.PlanObject(p); ok {
				ids = append(ids, id)
			}
		}
		node.Expect(ids)
		r = read(t, node)
		if staged, retained := r.gauge("fanstore.cache.staged_bytes").Value, r.gauge("fanstore.cache.retained_bytes").Value; staged != node.StagedBytes() || retained <= 0 || retained > staged {
			t.Errorf("rank %d: gauges staged=%d retained=%d, the cache holds %d B staged", c.Rank(), staged, retained, node.StagedBytes())
		}
		node.Expect(nil)
		r = read(t, node)
		if pins, staged := node.cache.pinned(), node.StagedBytes(); pins != 0 || staged != 0 ||
			r.gauge("fanstore.cache.staged_bytes").Value != 0 || r.gauge("fanstore.cache.pinned_bytes").Value != 0 ||
			r.gauge("fanstore.cache.used_bytes").Value != node.cache.Stats().Used {
			t.Errorf("rank %d: quiesced with %d pins, %d B staged\n%v", c.Rank(), pins, staged, r)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
