// Epoch-plan prefetch scheduling. The training-I/O insight behind it
// (NoPFS, "Clairvoyant Prefetching for Distributed Machine Learning
// I/O") is that an epoch's access sequence is fully known the moment
// the sampler's permutation is drawn — so instead of reacting with a
// fixed look-ahead window, the scheduler materializes the whole epoch,
// tells the store its order — so the store's cache evicts by next use
// and keeps what it already holds of it — and streams the entries that
// need a remote fetch to the store in plan-sized batches, gated by
// cache-pressure admission: never hold more staged-but-unread bytes than
// the cache has room for, backing off until the consumer frees some.
package prefetch

import (
	"sync"
	"sync/atomic"
	"time"

	"fanstore/internal/metrics"
	"fanstore/internal/trace"
)

// PlanStore is the store surface the epoch planner schedules against:
// the install and staging entry points plus the three signals the plan
// and its admission rule are built from. fanstore's Node satisfies it.
//
// The store names its objects with dense uint32 IDs (fanstore numbers
// its dataset at mount): the plan resolves each path once, dedupes and
// orders the epoch by ID, and installs the order as IDs. Staging still
// names paths, so a store is asked by path only for what it fetches.
type PlanStore interface {
	// Expect installs the epoch's access order — the ID of every distinct
	// object, in the order it will be read — before any of it is staged,
	// so the store's cache can evict by next use and keep what is already
	// resident and will be read. It replaces the previous epoch's.
	Expect(ids []uint32)
	// Prefetch stages the remote, uncached files among paths in batched
	// round trips and returns how many it staged. Best-effort: a file it
	// does not stage is fetched on demand when the worker opens it. It
	// must not keep paths past its return: the scheduler reuses it.
	Prefetch(paths []string) int
	// PlanObject resolves one path: the store's ID for it, its
	// decompressed size and whether producing it needs a remote fetch
	// (false: local, the plan orders it but stages nothing). ok is false
	// for a path the store does not know; the plan skips it.
	PlanObject(path string) (id uint32, size int64, remote, ok bool)
	// CacheHeadroom is the cache capacity neither pinned by open files
	// nor staged — the bytes one more batch may occupy.
	CacheHeadroom() int64
	// StagedBytes is the bytes held for the plan — staged or kept
	// resident — and not yet consumed.
	StagedBytes() int64
}

// PlanItem is one remote object the epoch will consume.
type PlanItem struct {
	Iter int // iteration that consumes it
	Path string
	Size int64 // decompressed bytes (the admission unit)
}

// Plan is one rank's materialized epoch: every remote object the
// sampler's permutation will touch, in consumption order.
type Plan struct {
	Items []PlanItem
	Iters int   // iterations the sampler yielded
	Bytes int64 // total decompressed bytes of Items

	// order is the ID of every distinct object of the epoch, local ones
	// too, in access order: what the scheduler installs in the store.
	order []uint32
}

// BuildPlan consumes sampler's full permutation (iteration 0 until
// ok=false) and keeps the paths store reports as remote, with their
// sizes. Each path is resolved once (PlanObject); paths the store does
// not know are skipped. Duplicates — the same object ID again — are
// planned once, at their first appearance: after that first fetch the
// object is cached or evicted-and-refetched on demand, and replanning it
// would double-count admission. The dedupe is a bit per ID.
func BuildPlan(sampler Sampler, store PlanStore) *Plan {
	p := &Plan{}
	var seen []uint64
	for i := 0; ; i++ {
		paths, ok := sampler(i)
		if !ok {
			break
		}
		p.Iters = i + 1
		for _, path := range paths {
			id, size, remote, known := store.PlanObject(path)
			if !known {
				continue
			}
			w, bit := int(id>>6), uint64(1)<<(id&63)
			if w >= len(seen) {
				seen = append(seen, make([]uint64, max(w+1, 2*len(seen))-len(seen))...)
			}
			if seen[w]&bit != 0 {
				continue
			}
			seen[w] |= bit
			p.order = append(p.order, id)
			if !remote {
				continue
			}
			p.Items = append(p.Items, PlanItem{Iter: i, Path: path, Size: size})
			p.Bytes += size
		}
	}
	return p
}

// SchedOptions configures a Scheduler.
type SchedOptions struct {
	// BatchFiles bounds the objects handed to one Prefetch call
	// (default 32). The store splits further into wire-sized batched fetch
	// frames; this knob shapes admission granularity.
	BatchFiles int
	// AdmissionSource is the staged-bytes budget, called before every
	// budget decision so a budget set on the node
	// (fanstore.Node.SetAdmissionBytes) takes effect mid-plan —
	// including for a batch already parked in the admission wait, which
	// re-reads it on every poll. Nil, or a returned 0, means the live
	// cache headroom (PlanStore.CacheHeadroom), so the budget tracks
	// open-file pressure. Must be safe for concurrent use.
	AdmissionSource func() int64
	// Poll is how often the admission wait re-checks cache pressure
	// when no Advance arrives (default 200µs): evictions free space
	// without notifying the scheduler.
	Poll time.Duration
	// Metrics registers the scheduler's instruments ("prefetch.plan.*").
	Metrics *metrics.Registry
	// Tracer records one OpPrefetch span covering the whole plan replay.
	Tracer *trace.Tracer
}

// Scheduler streams an epoch plan into a store: batches of upcoming
// remote objects, each admitted only when the staged-but-unread bytes
// plus the batch fit the admission budget. The consumer reports
// progress with Advance; items whose iteration has already been
// consumed are dropped, not staged. All methods are safe for
// concurrent use.
type Scheduler struct {
	store    PlanStore
	plan     *Plan
	batch    int
	admitSrc func() int64 // live staged-bytes budget (nil or 0: cache headroom)
	poll     time.Duration

	consumed atomic.Int64 // first iteration not yet delivered
	maxStage atomic.Int64 // high-water of StagedBytes (test hook)

	kick chan struct{} // Advance pings the admission wait
	done chan struct{}
	stop sync.Once
	wg   sync.WaitGroup

	planned *metrics.Counter // remote items in the plan
	staged  *metrics.Counter // objects the store reported staged
	skipped *metrics.Counter // items dropped as already consumed
	waits   *metrics.Counter // batches that waited on admission
	tracer  *trace.Tracer
}

// NewScheduler builds a scheduler for plan over store, installs the
// plan's access order in the store and starts its staging goroutine
// immediately. Stop (or plan exhaustion) releases it.
func NewScheduler(store PlanStore, plan *Plan, opts SchedOptions) *Scheduler {
	batch := opts.BatchFiles
	if batch <= 0 {
		batch = 32
	}
	poll := opts.Poll
	if poll <= 0 {
		poll = 200 * time.Microsecond
	}
	s := &Scheduler{
		store:    store,
		plan:     plan,
		batch:    batch,
		admitSrc: opts.AdmissionSource,
		poll:     poll,
		kick:     make(chan struct{}, 1),
		done:     make(chan struct{}),
		planned:  opts.Metrics.Counter("prefetch.plan.items"),
		staged:   opts.Metrics.Counter("prefetch.plan.staged"),
		skipped:  opts.Metrics.Counter("prefetch.plan.skipped"),
		waits:    opts.Metrics.Counter("prefetch.plan.admission.waits"),
		tracer:   opts.Tracer,
	}
	s.planned.Add(int64(len(plan.Items)))
	store.Expect(plan.order)
	s.wg.Add(1)
	go s.run()
	return s
}

// run walks the plan start to finish: carve the next batch, wait for
// admission, hand it to the store.
func (s *Scheduler) run() {
	defer s.wg.Done()
	tstart := s.tracer.Begin()
	defer s.tracer.End(trace.OpPrefetch, "epoch-plan", trace.OutcomeNone, tstart)
	cursor := 0
	var paths []string // one batch's, reused: Prefetch keeps none
	for cursor < len(s.plan.Items) {
		select {
		case <-s.done:
			return
		default:
		}
		// Carve the next batch: up to BatchFiles not-yet-consumed items,
		// clipped so one batch alone never exceeds the budget (a single
		// oversized object still ships, or nothing ever would). The budget
		// is read once per batch — it is two store calls, each a walk over
		// the cache's shards; the admission wait below re-reads it live.
		consumed := int(s.consumed.Load())
		budget := s.budget()
		paths = paths[:0]
		var batchBytes int64
		for cursor < len(s.plan.Items) && len(paths) < s.batch {
			it := s.plan.Items[cursor]
			if it.Iter < consumed {
				s.skipped.Inc()
				cursor++
				continue
			}
			if len(paths) > 0 && batchBytes+it.Size > budget {
				break
			}
			paths = append(paths, it.Path)
			batchBytes += it.Size
			cursor++
		}
		if len(paths) == 0 {
			continue
		}
		if !s.admitted(batchBytes) {
			return // stopped while waiting
		}
		s.staged.Add(int64(s.store.Prefetch(paths)))
		if st := s.store.StagedBytes(); st > s.maxStage.Load() {
			s.maxStage.Store(st)
		}
	}
}

// admitBytes is the current admission override, re-read on every budget
// decision and never snapshotted — a mid-plan change must steer the very
// next decision, including a batch already parked in the admission wait.
func (s *Scheduler) admitBytes() int64 {
	if s.admitSrc != nil {
		return s.admitSrc()
	}
	return 0
}

// budget is the total ceiling for staged-but-unread bytes: the override
// if configured, else the cache capacity not held by live readers.
// CacheHeadroom already nets out staged bytes, so they are added back —
// budget bounds the whole staging pool, not the next increment (the
// batch carve clips single batches against it).
func (s *Scheduler) budget() int64 {
	if admit := s.admitBytes(); admit > 0 {
		return admit
	}
	return s.store.CacheHeadroom() + s.store.StagedBytes()
}

// free is the admission room left for one more batch. With the override
// it is the un-staged remainder, clamped at zero like the cache's own
// headroom — the scheduler's staged sample can race ahead of the
// cache's decrements, and a negative remainder must read as "no room",
// not wrap into "infinite room".
func (s *Scheduler) free() int64 {
	if admit := s.admitBytes(); admit > 0 {
		f := admit - s.store.StagedBytes()
		if f < 0 {
			return 0
		}
		return f
	}
	return s.store.CacheHeadroom()
}

// admitted blocks until batchBytes fits in the free admission room (or
// staging is fully drained — an oversized batch must not starve).
// Returns false if stopped.
func (s *Scheduler) admitted(batchBytes int64) bool {
	var poll *time.Ticker // one per wait: admission binds, so this loops
	for {
		staged := s.store.StagedBytes()
		if staged > s.maxStage.Load() {
			s.maxStage.Store(staged)
		}
		if staged == 0 || batchBytes <= s.free() {
			return true
		}
		if poll == nil {
			s.waits.Inc()
			poll = time.NewTicker(s.poll)
			defer poll.Stop()
		}
		select {
		case <-s.done:
			return false
		case <-s.kick:
		case <-poll.C:
		}
	}
}

// Advance tells the scheduler the consumer has been delivered iteration
// iter: plan items at or before it are no longer worth staging, and
// the admission wait should re-check the freed space. Nil-safe, so the
// pipeline reports progress unconditionally.
func (s *Scheduler) Advance(iter int) {
	if s == nil {
		return
	}
	next := int64(iter + 1)
	for {
		cur := s.consumed.Load()
		if next <= cur || s.consumed.CompareAndSwap(cur, next) {
			break
		}
	}
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// Stop halts staging and waits for the scheduler goroutine to exit.
// Nil-safe; safe to call multiple times and after exhaustion.
func (s *Scheduler) Stop() {
	if s == nil {
		return
	}
	s.stop.Do(func() { close(s.done) })
	s.wg.Wait()
}

// Wait blocks until the scheduler has walked the whole plan (or was
// stopped).
func (s *Scheduler) Wait() { s.wg.Wait() }

// MaxStagedBytes reports the high-water mark of the store's staged
// bytes observed by the scheduler — the quantity the admission rule
// bounds (test hook).
func (s *Scheduler) MaxStagedBytes() int64 { return s.maxStage.Load() }

// Plan returns the plan being scheduled.
func (s *Scheduler) Plan() *Plan { return s.plan }
