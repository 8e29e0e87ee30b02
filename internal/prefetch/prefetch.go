// Package prefetch implements the asynchronous I/O pipeline of §VI-A
// (Fig. 5b) as a reusable component: while iteration i computes, the
// pipeline's I/O workers read and decompress iteration i+1's batch, so
// decompression cost is hidden as long as it fits inside the iteration
// time (Equation 2's condition).
//
// DL frameworks ship this machinery (Keras/TF/PyTorch input pipelines,
// §VI-A); training loops over FanStore use this package for the same
// role. The pipeline is a bounded queue of batch futures filled by a
// configurable number of I/O goroutines — the paper's "4 I/O threads per
// process" (§II-B1).
//
// Remote staging exploits that the sampler's permutation is fully known
// at epoch start (Options.Scheduler, plan.go): BuildPlan materializes the
// epoch's entire remote access sequence up front and a Scheduler streams
// it into the store under cache-pressure admission control —
// staged-but-unread bytes never exceed the cache's unpinned capacity,
// backing off until delivered batches (reported via Advance) free room.
// Without a Scheduler the workers fetch on demand.
//
// Delivered bytes live in recycled memory. A Reader returns each file in
// a distinct buffer the caller owns, and Next hands the previous batch's
// buffers back to the shared size-classed pool (decomp.PutBuf) before it
// returns the next batch, as Stop does with the last one; FanStore's
// Node.ReadFile draws from that pool, so in steady state a delivered
// file costs one copy into warm memory and no allocation. A batch's Data
// is valid until the next Next or Stop: a consumer that keeps a file
// longer copies it.
package prefetch

import (
	"errors"
	"fmt"
	"sync"

	"fanstore/internal/decomp"
	"fanstore/internal/metrics"
	"fanstore/internal/trace"
)

// Reader is the data source: FanStore's Node.ReadFile satisfies it.
// ReadFile returns a distinct buffer that the caller owns, as
// os.ReadFile does; the pipeline hands it to decomp.PutBuf once the
// consumer has moved past its batch, so a Reader that draws from
// decomp.GetBuf gets its buffers back.
type Reader interface {
	ReadFile(path string) ([]byte, error)
}

// Batch is one iteration's worth of training samples, in sampler order.
type Batch struct {
	// Index is the iteration number this batch feeds.
	Index int
	// Paths are the files of the batch.
	Paths []string
	// Data holds the file contents, parallel to Paths. It is valid
	// until the next Next or Stop, which recycles the buffers and nils
	// the entries.
	Data [][]byte
}

// Sampler yields the file list for iteration i, or ok=false at the end
// of the epoch. Implementations must be safe for calls from the pipeline
// goroutine. The pipeline calls each iteration exactly once, in order,
// but up to Depth iterations ahead of consumption (and BuildPlan walks
// the whole epoch before iteration 0), so a sampler must not depend on
// being called in lockstep with the training loop.
type Sampler func(iter int) (paths []string, ok bool)

// Options configures a Pipeline.
type Options struct {
	// Workers is the number of concurrent I/O goroutines (default 4,
	// matching the Keras default the paper describes in §II-B1).
	Workers int
	// Depth is how many batches may be in flight ahead of the consumer
	// (default 2: the classic double-buffering of Fig. 5b).
	Depth int
	// Scheduler, when set, stages the whole epoch's remote files ahead of
	// the workers under admission control: the pipeline reports
	// delivered iterations to it (Advance) and stops it on teardown.
	// Nil leaves every remote file to be fetched on demand.
	Scheduler *Scheduler
	// Metrics registers the pipeline's instrument, prefetch.stalls: the
	// Next calls that blocked (I/O the pipeline failed to hide). Nil
	// leaves it unregistered but live.
	Metrics *metrics.Registry
	// Tracer records a span per consumer stall (OpWait) and per produced
	// batch (OpCompute), so the trace timeline shows whether Equation 2
	// holds — I/O hidden behind compute — or the loop is I/O-bound.
	Tracer *trace.Tracer
}

// Pipeline prefetches batches ahead of a training loop.
type Pipeline struct {
	out   chan result
	stop  chan struct{}
	once  sync.Once
	wg    sync.WaitGroup
	sched *Scheduler // epoch-plan staging; nil fetches on demand

	stalls *metrics.Counter // Next calls that blocked
	tracer *trace.Tracer
	// held is the last delivered batch's Data; the next Next or Stop
	// recycles it. heldMu lets a Stop from another goroutine unblock a
	// waiting Next without racing its delivery.
	heldMu sync.Mutex
	held   [][]byte
}

type result struct {
	batch Batch
	err   error
}

// ErrStopped is returned by Next after Stop.
var ErrStopped = errors.New("prefetch: pipeline stopped")

// New starts a pipeline reading batches produced by sampler from r.
func New(r Reader, sampler Sampler, opts Options) *Pipeline {
	workers := opts.Workers
	if workers <= 0 {
		workers = 4
	}
	depth := opts.Depth
	if depth <= 0 {
		depth = 2
	}
	p := &Pipeline{
		out:    make(chan result, depth),
		stop:   make(chan struct{}),
		sched:  opts.Scheduler,
		stalls: opts.Metrics.Counter("prefetch.stalls"),
		tracer: opts.Tracer,
	}

	// The sequencer hands iteration indices to workers; a reorder stage
	// delivers completed batches in iteration order.
	type job struct {
		index int
		paths []string
	}
	jobs := make(chan job, depth)
	done := make(chan result, depth+workers)

	p.wg.Add(1)
	go func() { // sequencer: samples one iteration per dispatch
		defer p.wg.Done()
		defer close(jobs)
		for i := 0; ; i++ {
			paths, ok := sampler(i)
			if !ok {
				return
			}
			select {
			case jobs <- job{index: i, paths: paths}:
			case <-p.stop:
				return
			}
		}
	}()

	var workerWG sync.WaitGroup
	for w := 0; w < workers; w++ {
		workerWG.Add(1)
		go func() {
			defer workerWG.Done()
			for j := range jobs {
				tstart := p.tracer.Begin()
				b := Batch{Index: j.index, Paths: j.paths, Data: make([][]byte, 0, len(j.paths))}
				var err error
				for _, path := range j.paths {
					var data []byte
					if data, err = r.ReadFile(path); err != nil {
						err = fmt.Errorf("prefetch: iter %d: %w", j.index, err)
						break
					}
					b.Data = append(b.Data, data)
				}
				outcome := trace.OutcomeNone
				if err != nil {
					outcome = trace.OutcomeError
				}
				p.tracer.End(trace.OpCompute, "", outcome, tstart)
				select {
				case done <- result{batch: b, err: err}:
				case <-p.stop:
					return
				}
			}
		}()
	}
	go func() {
		workerWG.Wait()
		close(done)
	}()

	p.wg.Add(1)
	go func() { // reorder stage: deliver in iteration order
		defer p.wg.Done()
		defer close(p.out)
		pending := make(map[int]result)
		next := 0
		for r := range done {
			pending[r.batch.Index] = r
			for {
				res, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				next++
				select {
				case p.out <- res:
					// The plan no longer needs to stage this iteration,
					// and its consumption may have freed admission room.
					p.sched.Advance(res.batch.Index)
				case <-p.stop:
					return
				}
				if res.err != nil {
					// An error ends the stream, so shut the upstream
					// stages down now: without this, the sequencer and
					// workers stay blocked on their channels until Stop,
					// and a consumer that abandons the pipeline after a
					// failed Next leaks them all. It recycles nothing:
					// the consumer may still be reading its last batch.
					p.cancel()
					return
				}
			}
		}
	}()
	return p
}

// Next blocks for the next in-order batch. It returns ok=false at the
// clean end of the sampler's sequence. Results already delivered to the
// output queue win over Stop: after an error shuts the pipeline down,
// the buffered error (and any batches completed before it) still reach
// the consumer deterministically instead of racing ErrStopped.
//
// Next first hands the previous batch's Data back to the buffer pool
// (decomp.PutBuf) and nils its entries: a batch's bytes are valid until
// the next Next or Stop, and a consumer that kept the old Batch sees
// nils, never another file's bytes. Call it from one goroutine, the
// consumer's.
func (p *Pipeline) Next() (Batch, bool, error) {
	p.recycle()
	select {
	case r, ok := <-p.out:
		return p.deliver(r, ok)
	default:
	}
	// The fast path missed: the consumer is about to stall on I/O the
	// pipeline did not hide. Only this blocking portion counts as wait,
	// so the OpWait span measures stalls, not queue polls.
	tstart := p.tracer.Begin()
	p.stalls.Inc()
	defer p.tracer.End(trace.OpWait, "", trace.OutcomeNone, tstart)
	select {
	case r, ok := <-p.out:
		return p.deliver(r, ok)
	case <-p.stop:
		// Stop raced an in-flight delivery; drain it if it landed.
		select {
		case r, ok := <-p.out:
			return p.deliver(r, ok)
		default:
			return Batch{}, false, ErrStopped
		}
	}
}

// deliver returns one received result to the consumer and remembers its
// buffers for the next Next or Stop to recycle.
func (p *Pipeline) deliver(r result, ok bool) (Batch, bool, error) {
	if !ok {
		return Batch{}, false, nil
	}
	p.heldMu.Lock()
	p.held = r.batch.Data
	p.heldMu.Unlock()
	return r.batch, r.err == nil, r.err
}

// recycle hands the last delivered batch's buffers back to the pool and
// nils its entries.
func (p *Pipeline) recycle() {
	p.heldMu.Lock()
	for i, b := range p.held {
		decomp.PutBuf(b)
		p.held[i] = nil
	}
	p.held = nil
	p.heldMu.Unlock()
}

// Stop cancels the pipeline and releases its goroutines, including the
// epoch-plan scheduler when one is attached, then hands the last
// delivered batch's buffers back as Next would: after Stop no delivered
// batch is valid. It is the consumer's call, made once it is done with
// that batch — as every loop's deferred Stop is; a Stop from another
// goroutine also unblocks a waiting Next. Safe to call multiple times and
// after exhaustion.
func (p *Pipeline) Stop() {
	p.cancel()
	p.recycle()
}

// cancel is Stop without the recycling: the pipeline's own shutdown,
// which must not take a batch from a consumer still reading it.
func (p *Pipeline) cancel() {
	p.once.Do(func() {
		close(p.stop)
		p.sched.Stop()
	})
}

// RangeSampler batches a path list into fixed-size iterations, striped
// for one rank of a data-parallel job: iteration i takes paths
// [(i*ranks+rank)*batch, ...). It is the shuffling-free core; callers
// shuffle the path slice per epoch (as the training example does).
//
// Tail semantics: when len(paths) is not divisible by batch*ranks, the
// trailing samples are still delivered — the final batch may be shorter
// than batch, and a rank whose stripe lies entirely past the end gets an
// empty (but present) batch. Every rank therefore runs the same number
// of iterations, SamplerIters(len(paths), batch, ranks), so per-rank
// collectives in the training loop stay aligned.
func RangeSampler(paths []string, batch, rank, ranks int) Sampler {
	if batch <= 0 || ranks <= 0 {
		return func(int) ([]string, bool) { return nil, false }
	}
	iters := SamplerIters(len(paths), batch, ranks)
	return func(iter int) ([]string, bool) {
		if iter < 0 || iter >= iters {
			return nil, false
		}
		start := (iter*ranks + rank) * batch
		if start >= len(paths) {
			return []string{}, true // aligned empty tail batch
		}
		end := start + batch
		if end > len(paths) {
			end = len(paths)
		}
		return paths[start:end], true
	}
}

// SamplerIters reports how many iterations RangeSampler yields per rank
// for n paths: ceil(n / (batch*ranks)), identical on every rank.
func SamplerIters(n, batch, ranks int) int {
	if batch <= 0 || ranks <= 0 || n <= 0 {
		return 0
	}
	stride := batch * ranks
	return (n + stride - 1) / stride
}
