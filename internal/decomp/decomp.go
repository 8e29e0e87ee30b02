// Package decomp holds the size-classed buffer pool (buf.go) that feeds
// decode outputs, RPC responses and received frames across the hot
// path, and a bounded, two-priority decode worker pool.
//
// The store does not use the worker pool: an object decodes on the
// goroutine that waits for it — an opener, a prefetch batch's stride,
// an EC rebuild's reader — through Codec.Decompress, which borrows its
// decoder state from the codec package's free list. The
// pool stays only because the benchmark's isolated dispatch probe calls
// New, Pool.Run and PriOpen; nothing else in the module does.
package decomp

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fanstore/internal/codec"
	"fanstore/internal/metrics"
)

// Priority classes a job is submitted under.
type Priority uint8

const (
	// PriOpen is for work a caller is blocked on; workers drain these
	// before looking at prefetch work.
	PriOpen Priority = iota
	// PriPrefetch is for speculative look-ahead decodes.
	PriPrefetch
)

// job is one queued decode unit.
type job struct {
	fn  func(*codec.Scratch)
	wg  *sync.WaitGroup
	enq time.Time
}

// Pool is the shared decode worker pool. Each worker owns a
// codec.Scratch, so entropy-coded decodes reuse Huffman tables and
// range-coder models instead of allocating them per block. A nil *Pool
// is valid and runs every job inline on the caller (with a nil scratch,
// which codec.DecompressScratch replaces with a borrowed one).
type Pool struct {
	high, low chan job
	stop      chan struct{}
	once      sync.Once
	workers   sync.WaitGroup
	nworkers  int // fixed at New
	// submitting counts Submit calls between their stop check and their
	// enqueue, so Close can wait out racing submitters before the final
	// drain.
	submitting atomic.Int64

	// waiters recycles the WaitGroups Run blocks on, keeping the
	// synchronous path allocation-free.
	waiters sync.Pool

	waitHist *metrics.Histogram // queue wait: enqueue to worker pickup
	jobs     *metrics.Counter
	poolSize *metrics.Gauge // worker count
}

// New builds a pool with the given worker count (<=0 means GOMAXPROCS).
// Instruments register in reg as "decomp.*"; nil means private unnamed
// instruments.
func New(workers int, reg *metrics.Registry) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	depth := 4 * workers
	if depth < 16 {
		depth = 16
	}
	p := &Pool{
		high:     make(chan job, depth),
		low:      make(chan job, depth),
		stop:     make(chan struct{}),
		nworkers: workers,
		waitHist: reg.Histogram("decomp.queue.wait.latency"),
		jobs:     reg.Counter("decomp.jobs"),
		poolSize: reg.Gauge("decomp.pool.workers"),
	}
	p.poolSize.Set(int64(workers))
	p.waiters.New = func() interface{} { return new(sync.WaitGroup) }
	p.workers.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// Workers reports the pool's worker count (0 for a nil pool).
func (p *Pool) Workers() int {
	if p == nil {
		return 0
	}
	return p.nworkers
}

// Submit enqueues fn at the given priority; wg.Done fires when it
// completes (wg may be nil). The queue is bounded: a full class blocks
// the submitter, which is the backpressure that keeps a runaway
// prefetcher from buffering unbounded decode work. On a nil or closed
// pool the job runs inline on the caller.
func (p *Pool) Submit(pri Priority, wg *sync.WaitGroup, fn func(*codec.Scratch)) {
	if p == nil {
		fn(nil)
		if wg != nil {
			wg.Done()
		}
		return
	}
	ch := p.high
	if pri == PriPrefetch {
		ch = p.low
	}
	j := job{fn: fn, wg: wg, enq: time.Now()}
	p.submitting.Add(1)
	select {
	case <-p.stop:
		p.submitting.Add(-1)
		p.exec(j, nil, false)
		return
	default:
	}
	select {
	case ch <- j:
		p.submitting.Add(-1)
	case <-p.stop:
		p.submitting.Add(-1)
		p.exec(j, nil, false)
	}
}

// Run executes fn on the pool at pri and waits for it to finish: one job
// and two goroutine hand-offs (wake a worker, wake the caller back). The
// waiter comes from a free list, so the synchronous path stays
// allocation-free. Its one caller is the benchmark's dispatch probe,
// which times those hand-offs; work whose caller would only wait runs
// better on the caller.
func (p *Pool) Run(pri Priority, fn func(*codec.Scratch)) {
	if p == nil {
		fn(nil)
		return
	}
	wg := p.waiters.Get().(*sync.WaitGroup)
	wg.Add(1)
	p.Submit(pri, wg, fn)
	wg.Wait()
	p.waiters.Put(wg)
}

// exec runs one job. queued says whether it waited in a queue (inline
// fallback jobs did not), so its wait is observed.
func (p *Pool) exec(j job, s *codec.Scratch, queued bool) {
	if queued {
		p.waitHist.Observe(time.Since(j.enq))
	}
	j.fn(s)
	p.jobs.Inc()
	if j.wg != nil {
		j.wg.Done()
	}
}

// worker services jobs until Close, always draining the open class
// before considering prefetch work.
func (p *Pool) worker() {
	defer p.workers.Done()
	s := codec.NewScratch()
	for {
		// Demand opens outrank prefetch: take high-priority work first
		// whenever any is queued.
		select {
		case j := <-p.high:
			p.exec(j, s, true)
			continue
		default:
		}
		select {
		case j := <-p.high:
			p.exec(j, s, true)
		case j := <-p.low:
			p.exec(j, s, true)
		case <-p.stop:
			// Drain what is already queued so no submitted waiter is
			// left hanging, then exit.
			for {
				select {
				case j := <-p.high:
					p.exec(j, s, true)
				case j := <-p.low:
					p.exec(j, s, true)
				default:
					return
				}
			}
		}
	}
}

// Close stops the workers, runs any job that was still queued (no
// submitted waiter is ever abandoned), and returns. Jobs submitted
// after Close run inline on their submitter. Safe to call twice and on
// a nil pool.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	p.once.Do(func() { close(p.stop) })
	p.workers.Wait()
	// Wait out submitters that raced the shutdown: each either ran its
	// job inline or managed to enqueue it before decrementing.
	for p.submitting.Load() > 0 {
		runtime.Gosched()
	}
	for {
		select {
		case j := <-p.high:
			p.exec(j, nil, true)
		case j := <-p.low:
			p.exec(j, nil, true)
		default:
			return
		}
	}
}
