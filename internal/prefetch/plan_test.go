package prefetch

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakePlanStore is an in-memory PlanStore: every path in remote is a
// fixed-size remote object, named by its ID in ids; Prefetch stages
// instantly and the test drains staged bytes to play the consumer.
type fakePlanStore struct {
	mu       sync.Mutex
	remote   map[string]int64
	ids      map[string]uint32
	staged   int64
	headroom int64
	maxStage int64
	fetched  []string
	calls    int
	block    chan struct{} // non-nil: Prefetch waits on it once
	entered  chan struct{} // non-nil: Prefetch signals entry before blocking
}

func (f *fakePlanStore) PlanObject(path string) (uint32, int64, bool, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	id, ok := f.ids[path]
	size, remote := f.remote[path]
	return id, size, remote, ok
}

func (f *fakePlanStore) Expect([]uint32) {}

func (f *fakePlanStore) CacheHeadroom() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.headroom
}

func (f *fakePlanStore) StagedBytes() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.staged
}

func (f *fakePlanStore) Prefetch(paths []string) int {
	f.mu.Lock()
	block, entered := f.block, f.entered
	f.block, f.entered = nil, nil
	f.mu.Unlock()
	if entered != nil {
		close(entered)
	}
	if block != nil {
		<-block
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	for _, p := range paths {
		f.staged += f.remote[p]
		f.fetched = append(f.fetched, p)
	}
	if f.staged > f.maxStage {
		f.maxStage = f.staged
	}
	return len(paths)
}

// consume drains n staged bytes, as opens acquiring staged entries do.
func (f *fakePlanStore) consume(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.staged -= n
	if f.staged < 0 {
		f.staged = 0
	}
}

func fakeStore(files, size int) (*fakePlanStore, []string) {
	f := &fakePlanStore{}
	paths := initFakeStore(f, files, size)
	return f, paths
}

// initFakeStore populates an already-allocated fake store in place (so
// embedders avoid copying its mutex) and returns the remote paths.
func initFakeStore(f *fakePlanStore, files, size int) []string {
	f.remote = make(map[string]int64)
	f.ids = make(map[string]uint32)
	f.headroom = 1 << 30
	paths := make([]string, files)
	for i := range paths {
		paths[i] = fmt.Sprintf("data/%04d.bin", i)
		f.remote[paths[i]] = int64(size)
		f.ids[paths[i]] = uint32(i)
	}
	return paths
}

// TestBuildPlanMaterializesRemoteSequence checks plan construction:
// every remote path once, in consumption order, local paths dropped,
// duplicates planned at first appearance only.
func TestBuildPlanMaterializesRemoteSequence(t *testing.T) {
	store, paths := fakeStore(8, 100)
	mixed := append([]string{}, paths...)
	mixed = append(mixed, "local/skip.bin", paths[0], paths[3]) // dup + local
	sampler := RangeSampler(mixed, 2, 0, 1)

	plan := BuildPlan(sampler, store)
	if plan.Iters != SamplerIters(len(mixed), 2, 1) {
		t.Fatalf("plan covers %d iters, want %d", plan.Iters, SamplerIters(len(mixed), 2, 1))
	}
	if len(plan.Items) != len(paths) {
		t.Fatalf("planned %d items, want %d", len(plan.Items), len(paths))
	}
	if plan.Bytes != int64(len(paths)*100) {
		t.Fatalf("plan bytes %d, want %d", plan.Bytes, len(paths)*100)
	}
	for i, it := range plan.Items {
		if it.Path != paths[i] {
			t.Fatalf("item %d is %s, want %s (consumption order)", i, it.Path, paths[i])
		}
		if it.Iter != i/2 {
			t.Fatalf("item %d planned for iter %d, want %d", i, it.Iter, i/2)
		}
	}
}

// TestSchedulerAdmissionBoundsStagedBytes runs a plan 8x the admission
// budget through the scheduler while a consumer drains slowly: the
// staged-but-unread high-water must never exceed the budget, and the
// whole plan must still ship.
func TestSchedulerAdmissionBoundsStagedBytes(t *testing.T) {
	const files, size, budget = 32, 100, 400
	store, paths := fakeStore(files, size)
	sampler := RangeSampler(paths, 1, 0, 1)
	plan := BuildPlan(sampler, store)

	sched := NewScheduler(store, plan, SchedOptions{
		BatchFiles:      4,
		AdmissionSource: func() int64 { return budget },
		Poll:            50 * time.Microsecond,
	})
	// Consumer: drain one object at a time until the plan is through.
	deadline := time.After(5 * time.Second)
	drained := int64(0)
	for drained < files*size {
		select {
		case <-deadline:
			t.Fatalf("scheduler stalled: drained %d of %d bytes", drained, files*size)
		default:
		}
		if store.StagedBytes() > 0 {
			store.consume(size)
			drained += size
		}
		time.Sleep(20 * time.Microsecond)
	}
	sched.Wait()
	sched.Stop()

	store.mu.Lock()
	defer store.mu.Unlock()
	if store.maxStage > budget {
		t.Fatalf("staged high-water %d exceeds admission budget %d", store.maxStage, budget)
	}
	if len(store.fetched) != files {
		t.Fatalf("scheduler shipped %d of %d planned items", len(store.fetched), files)
	}
	if sched.MaxStagedBytes() > budget {
		t.Fatalf("scheduler observed high-water %d over budget %d", sched.MaxStagedBytes(), budget)
	}
}

// TestSchedulerSkipsConsumedIterations holds the first Prefetch in
// flight while the consumer races to the end of the epoch; the
// scheduler must drop the overtaken items instead of staging data
// nobody will read.
func TestSchedulerSkipsConsumedIterations(t *testing.T) {
	const files, size = 16, 100
	store, paths := fakeStore(files, size)
	block, entered := make(chan struct{}), make(chan struct{})
	store.block, store.entered = block, entered
	sampler := RangeSampler(paths, 1, 0, 1)
	plan := BuildPlan(sampler, store)

	sched := NewScheduler(store, plan, SchedOptions{BatchFiles: 4})
	// Wait until the first batch is parked inside Prefetch, then let the
	// consumer finish the whole epoch before releasing it.
	<-entered
	sched.Advance(files - 1)
	close(block)
	sched.Wait()

	store.mu.Lock()
	defer store.mu.Unlock()
	if len(store.fetched) != 4 {
		t.Fatalf("scheduler staged %d items after the epoch was consumed, want only the in-flight 4", len(store.fetched))
	}
}

// TestSchedulerStopUnblocksAdmissionWait: a scheduler parked on a full
// budget must exit promptly on Stop.
func TestSchedulerStopUnblocksAdmissionWait(t *testing.T) {
	const files, size = 8, 100
	store, paths := fakeStore(files, size)
	sampler := RangeSampler(paths, 1, 0, 1)
	plan := BuildPlan(sampler, store)

	// Budget admits exactly one 4-file batch, and nothing ever drains.
	sched := NewScheduler(store, plan, SchedOptions{BatchFiles: 4, AdmissionSource: func() int64 { return 4 * size }, Poll: time.Hour})
	done := make(chan struct{})
	go func() {
		sched.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not unblock the admission wait")
	}
}

// TestPipelineWithSchedulerDelivers wires a Scheduler into the Pipeline
// end to end over the fake store: every batch arrives in order and the
// plan ships.
func TestPipelineWithSchedulerDelivers(t *testing.T) {
	const files, size = 24, 64
	store, paths := fakeStore(files, size)
	sampler := RangeSampler(paths, 4, 0, 1)
	plan := BuildPlan(sampler, store)
	sched := NewScheduler(store, plan, SchedOptions{BatchFiles: 8})

	reader := readerFunc(func(path string) ([]byte, error) {
		store.consume(size) // an open consumes its staged entry
		return []byte(path), nil
	})
	pipe := New(reader, sampler, Options{Workers: 2, Scheduler: sched})
	defer pipe.Stop()
	next := 0
	for {
		b, ok, err := pipe.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if b.Index != next {
			t.Fatalf("batch %d delivered out of order (want %d)", b.Index, next)
		}
		next++
	}
	if next != SamplerIters(files, 4, 1) {
		t.Fatalf("delivered %d batches, want %d", next, SamplerIters(files, 4, 1))
	}
	sched.Wait()
	store.mu.Lock()
	defer store.mu.Unlock()
	if len(store.fetched)+int(schedSkipped(sched)) < files {
		t.Fatalf("plan lost items: fetched %d, skipped %d, want %d total", len(store.fetched), schedSkipped(sched), files)
	}
}

// readerFunc adapts a function to the Reader interface.
type readerFunc func(path string) ([]byte, error)

func (f readerFunc) ReadFile(path string) ([]byte, error) { return f(path) }

// schedSkipped reads the scheduler's skipped-items counter.
func schedSkipped(s *Scheduler) int64 { return s.skipped.Value() }
