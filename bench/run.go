package main

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"fanstore"
	"fanstore/internal/dataset"
	"fanstore/internal/prefetch"
)

// corpus is a workload's generated dataset. The raw inputs are dropped
// after the last Pack; only paths and checksums stay, so the process's
// footprint in the timed window is the store's.
type corpus struct {
	inputs   []fanstore.InputFile
	paths    []string
	crcs     map[string]uint32
	rawBytes int64
}

// generate makes the workload's dataset from the seed alone.
func generate(sp spec, seed int64) *corpus {
	g := dataset.Generator{Kind: sp.kind, Seed: seed, Size: sp.size}
	c := &corpus{
		inputs: make([]fanstore.InputFile, sp.files),
		paths:  make([]string, sp.files),
		crcs:   make(map[string]uint32, sp.files),
	}
	for i := range c.inputs {
		f := g.File(i, sp.files)
		c.inputs[i] = fanstore.InputFile{Path: f.Path, Data: f.Data}
		c.paths[i] = f.Path
		c.crcs[f.Path] = crc32.ChecksumIEEE(f.Data)
		c.rawBytes += int64(len(f.Data))
	}
	return c
}

// pack runs the data preparation tool over the corpus.
func (c *corpus) pack(sp spec) (*fanstore.Bundle, time.Duration, error) {
	t0 := time.Now()
	b, err := fanstore.Pack(c.inputs, fanstore.BuildOptions{Partitions: ranks, Compressor: sp.codec})
	return b, time.Since(t0), err
}

// dropInputs releases the raw files and returns freed pages to the OS,
// so they do not count in the window's resident set.
func (c *corpus) dropInputs() {
	c.inputs = nil
	debug.FreeOSMemory()
}

// window is what one timed window measured.
type window struct {
	from, to usage
	// epochWalls are the timed epochs' wall times, barrier to barrier
	// on rank 0 (open_cold: per chunk of chunkOpens opens).
	epochWalls []time.Duration
	epochFiles int   // files delivered per epoch, all ranks
	files      int64 // files delivered in the window, all ranks
	// steps are the closed-loop request times, pooled over ranks: one
	// training iteration (Next + verify + Allgather), or one
	// Open+Read+Close in open_cold.
	steps  []time.Duration
	rssMax int64
}

func (w *window) wall() time.Duration { return w.to.at.Sub(w.from.at) }

// filesPerSec is files per epoch over the median epoch wall time.
func (w *window) filesPerSec() float64 {
	med := median(durs(w.epochWalls, time.Second))
	if med == 0 {
		return 0
	}
	return float64(w.epochFiles) / med
}

// launch is one world: mount, warm up, optionally run a timed window and
// the checkpoint read-back, unmount.
type launch struct {
	sp     spec
	seed   int64
	corp   *corpus
	bundle *fanstore.Bundle
	timed  time.Duration // 0: a set-up repetition, stop after warm-up
	obs    *observer     // nil: the e2e configuration, nothing attached

	stop      atomic.Bool
	attempted atomic.Int64
	failed    atomic.Int64
	crossRead atomic.Int64 // checkpoints read back on a rank that did not write them

	// Written by rank 0 only (steps: each rank its own slot).
	ready    time.Time // warm-up done: the first timed epoch or open may start
	mountDur time.Duration
	win      window
	steps    [ranks][]time.Duration
}

// run executes the world and folds the per-rank samples into the window.
func (l *launch) run() error {
	body := l.trainRank
	if l.sp.coldOpens {
		body = l.openRank
	}
	err := l.sp.start(body)
	for _, s := range l.steps {
		l.win.steps = append(l.win.steps, s...)
	}
	return err
}

func (l *launch) fail(format string, args ...any) {
	l.failed.Add(1)
	warnf(format, args...)
}

// mount mounts this rank's partition with the workload's cache size and
// nothing else set, plus the observer's sinks and backend on a traced run.
func (l *launch) mount(c *fanstore.Comm) (*fanstore.Node, error) {
	t0 := time.Now()
	opts := fanstore.Options{CacheBytes: l.sp.cacheBytes}
	l.obs.attach(&opts, c.Rank())
	node, err := fanstore.Mount(c, [][]byte{l.bundle.Scatter[c.Rank()]}, nil, opts)
	if err == nil && c.Rank() == 0 {
		l.mountDur = time.Since(t0)
	}
	return node, err
}

// verify checks one delivered file against the generator's checksum.
func (l *launch) verify(path string, data []byte) uint32 {
	sum := crc32.ChecksumIEEE(data)
	if want, ok := l.corp.crcs[path]; !ok || want != sum {
		l.fail("%s: crc %08x, want %08x", path, sum, want)
	}
	return sum
}

// openWindow marks warm-up done on rank 0 and starts the timed window
// there. Callers fence it with barriers so no rank is mid-work.
func (l *launch) openWindow() {
	l.ready = time.Now()
	if l.timed == 0 {
		return
	}
	runtime.GC() // start every window at the same heap phase
	l.obs.windowStart()
	l.win.from = readUsage()
}

func (l *launch) closeWindow() {
	l.win.to = readUsage()
	l.obs.windowEnd()
}

// endEpoch records one timed epoch on rank 0, after its barrier.
func (l *launch) endEpoch(wall time.Duration, files int) {
	l.win.epochWalls = append(l.win.epochWalls, wall)
	l.win.epochFiles = files
	l.win.files += int64(files)
	if rss := rssBytes(); rss > l.win.rssMax {
		l.win.rssMax = rss
	}
}

func ckptPath(rank, epoch int) string { return fmt.Sprintf("ckpt/rank%d-epoch%04d.bin", rank, epoch) }

func ckptBody(rank, epoch int, weights uint32) []byte {
	return []byte(fmt.Sprintf("rank=%d epoch=%d weights=%08x", rank, epoch, weights))
}

// trainRank is one rank of a train_* workload: the fanstore-train loop in
// plan mode with no simulated compute.
func (l *launch) trainRank(c *fanstore.Comm) error {
	rank := c.Rank()
	node, err := l.mount(c)
	if err != nil {
		return err
	}
	defer node.Close()
	reader, store := l.obs.seams(node, rank)
	reg, tr := l.obs.sinks(rank)
	rec := l.obs.recorder()

	if l.sp.preread {
		for _, p := range l.corp.paths {
			data, err := node.ReadFile(p)
			if err != nil {
				return err
			}
			l.verify(p, data)
		}
	}

	files := len(l.corp.paths)
	iters := prefetch.SamplerIters(files, l.sp.batch, ranks)
	var weights uint32
	var history []uint32 // weights after each epoch, for the read-back
	var children []interval

	epoch := func(e int, timed bool) error {
		t0 := time.Now()
		em := rec.begin("epoch", rank, 0)
		rec.setEpoch(rank, em)
		order := rand.New(rand.NewSource(l.seed*1000 + int64(e))).Perm(files)
		shuffled := make([]string, files)
		for i, idx := range order {
			shuffled[i] = l.corp.paths[idx]
		}
		sampler := prefetch.RangeSampler(shuffled, l.sp.batch, rank, ranks)
		m := rec.begin("prefetch.buildplan", rank, em.id)
		plan := prefetch.BuildPlan(sampler, store)
		rec.end(m)
		sched := prefetch.NewScheduler(store, plan, prefetch.SchedOptions{
			AdmissionSource: node.AdmissionBytes,
			Metrics:         reg,
			Tracer:          tr,
		})
		pipe := prefetch.New(reader, sampler, prefetch.Options{
			Workers: 1, Depth: 2, Scheduler: sched, Metrics: reg, Tracer: tr,
		})
		defer pipe.Stop() // error paths; Stop is idempotent
		for it := 0; it < iters; it++ {
			s0 := time.Now()
			im := rec.begin("iter", rank, em.id)
			m := rec.begin("prefetch.next", rank, im.id)
			b, ok, err := pipe.Next()
			children = append(children[:0], rec.end(m))
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("epoch %d ended after %d of %d iterations", e, it, iters)
			}
			l.attempted.Add(int64(len(b.Paths)))
			m = rec.begin("verify", rank, im.id)
			var grad uint32
			for i, data := range b.Data {
				grad ^= l.verify(b.Paths[i], data)
			}
			children = append(children, rec.end(m))
			m = rec.begin("mpi.allgather", rank, im.id)
			parts, err := c.Allgather([]byte{byte(grad), byte(grad >> 8), byte(grad >> 16), byte(grad >> 24)})
			children = append(children, rec.end(m))
			if err != nil {
				return err
			}
			for _, p := range parts {
				weights ^= uint32(p[0]) | uint32(p[1])<<8 | uint32(p[2])<<16 | uint32(p[3])<<24
			}
			if iv := rec.end(im); im.id != 0 {
				rec.observe("iter.self", selfTime(iv, children))
			}
			if timed {
				l.steps[rank] = append(l.steps[rank], time.Since(s0))
			}
		}
		pipe.Stop()
		l.attempted.Add(1)
		m = rec.begin("fs.writefile", rank, em.id)
		err := node.WriteFile(ckptPath(rank, e), ckptBody(rank, e, weights))
		rec.end(m)
		if err != nil {
			return err
		}
		history = append(history, weights)
		if timed && rank == 0 && time.Since(l.win.from.at) >= l.timed {
			l.stop.Store(true) // before the barrier, so every rank sees it after
		}
		m = rec.begin("mpi.barrier", rank, em.id)
		err = c.Barrier()
		rec.end(m)
		rec.end(em)
		if timed && rank == 0 {
			l.endEpoch(time.Since(t0), files)
		}
		return err
	}

	e := 0
	for ; e < l.sp.warmEpochs; e++ {
		if err := epoch(e, false); err != nil {
			return err
		}
	}
	if rank == 0 {
		l.openWindow()
	}
	if err := c.Barrier(); err != nil || l.timed == 0 {
		return err
	}
	for ; !l.stop.Load(); e++ {
		if err := epoch(e, true); err != nil {
			return err
		}
	}
	if rank == 0 {
		l.closeWindow()
	}
	if err := c.Barrier(); err != nil {
		return err
	}
	l.readBack(node, rank, history)
	return c.Barrier()
}

// readBack re-reads the per-epoch checkpoints after the window: every
// rank its own, and the other rank's wherever this rank can see them (a
// written file's metadata lives on its writer and on one home rank).
func (l *launch) readBack(node *fanstore.Node, rank int, history []uint32) {
	for e, weights := range history {
		for w := 0; w < ranks; w++ {
			path := ckptPath(w, e)
			if w != rank {
				if _, err := node.Stat(path); errors.Is(err, fanstore.ErrNotExist) {
					continue
				}
				l.crossRead.Add(1)
			}
			l.attempted.Add(1)
			data, err := node.ReadFile(path)
			if err != nil {
				l.fail("checkpoint %s on rank %d: %v", path, rank, err)
			} else if want := ckptBody(w, e, weights); string(data) != string(want) {
				l.fail("checkpoint %s on rank %d: %q, want %q", path, rank, data, want)
			}
		}
	}
}

// splitPaths sorts the corpus into what this node holds and what it must
// fetch from the other rank, as the epoch planner would.
func splitPaths(node *fanstore.Node, paths []string) (local, remote []string) {
	for _, p := range paths {
		if _, far := node.PlanTarget(p); far {
			remote = append(remote, p)
		} else {
			local = append(local, p)
		}
	}
	return local, remote
}

// openRead is one Open + Read of the whole file + Close. The bytes land
// in *buf, grown if the file is larger.
func openRead(node *fanstore.Node, path string, buf *[]byte) ([]byte, error) {
	f, err := node.Open(path)
	if err != nil {
		return nil, err
	}
	if n := int(f.Size()); n > len(*buf) {
		*buf = make([]byte, n)
	}
	data := (*buf)[:f.Size()]
	_, err = io.ReadFull(f, data)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return data, err
}

// openRank is one rank of open_cold: rank 0 opens paths rank 1 owns, one
// at a time; rank 1 only serves.
func (l *launch) openRank(c *fanstore.Comm) error {
	node, err := l.mount(c)
	if err != nil {
		return err
	}
	defer node.Close()
	if c.Rank() != 0 {
		return c.Barrier()
	}
	rec := l.obs.recorder()
	_, remote := splitPaths(node, l.corp.paths)
	if len(remote) == 0 {
		return errors.New("open_cold: rank 0 sees no remote path")
	}
	buf := make([]byte, l.sp.size)
	next := 0
	open := func(timed bool) error {
		path := remote[next%len(remote)]
		next++
		l.attempted.Add(1)
		t0 := time.Now()
		m := rec.begin("open", 0, 0)
		data, err := openRead(node, path, &buf)
		rec.end(m)
		if timed {
			l.steps[0] = append(l.steps[0], time.Since(t0))
		}
		if err != nil {
			return err
		}
		l.verify(path, data)
		return nil
	}
	for i := 0; i < l.sp.warmOpens; i++ {
		if err := open(false); err != nil {
			return err
		}
	}
	l.openWindow()
	for l.timed > 0 && !l.stop.Load() {
		t0 := time.Now()
		for i := 0; i < chunkOpens; i++ {
			if err := open(true); err != nil {
				return err
			}
		}
		l.endEpoch(time.Since(t0), chunkOpens)
		l.stop.Store(time.Since(l.win.from.at) >= l.timed)
	}
	if l.timed > 0 {
		l.closeWindow()
	}
	return c.Barrier()
}
