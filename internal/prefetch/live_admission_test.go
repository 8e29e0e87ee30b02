package prefetch

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fanstore/internal/metrics"
)

// recordingPlanStore extends the fake store to snapshot the staged-bytes
// level right after every Prefetch call, so a test can assert the
// admission rule held batch by batch.
type recordingPlanStore struct {
	fakePlanStore
	rmu         sync.Mutex
	stagedAfter []int64
	recordCalls int
}

func (r *recordingPlanStore) Prefetch(paths []string) int {
	n := r.fakePlanStore.Prefetch(paths)
	r.rmu.Lock()
	r.stagedAfter = append(r.stagedAfter, r.StagedBytes())
	r.recordCalls++
	r.rmu.Unlock()
	return n
}

// TestSetAdmissionBytesMidPlan is the regression test for the budget
// snapshot bug: budget() used to capture the admission budget once at
// construction, so a mid-plan shrink never took effect. Here the plan
// fills a 1200-byte budget, the source's budget is shrunk to 600 while
// a batch is parked in the admission wait, and every batch staged after
// the shrink must land the staging pool at or below the new budget.
func TestSetAdmissionBytesMidPlan(t *testing.T) {
	const files, size, batch = 32, 100, 4
	const oldBudget, newBudget = 3 * batch * size, 6 * size // 1200, 600
	store := &recordingPlanStore{}
	paths := initFakeStore(&store.fakePlanStore, files, size)
	sampler := RangeSampler(paths, 1, 0, 1)
	plan := BuildPlan(sampler, store)

	reg := metrics.NewRegistry()
	var budget atomic.Int64
	budget.Store(oldBudget)
	sched := NewScheduler(store, plan, SchedOptions{
		BatchFiles:      batch,
		AdmissionSource: budget.Load,
		Poll:            50 * time.Microsecond,
		Metrics:         reg,
	})
	defer sched.Stop()

	// With no consumption the scheduler fills the old budget (three
	// 400-byte batches) and parks the fourth in the admission wait.
	waitFor(t, "old budget filled", func() bool {
		return store.StagedBytes() == oldBudget && schedWaits(sched) >= 1
	})

	// Shrink mid-plan, while a batch is parked waiting.
	budget.Store(newBudget)
	store.rmu.Lock()
	callsAtShrink := store.recordCalls
	store.rmu.Unlock()

	// Consumer drains; the parked batch must only ship once it fits the
	// NEW budget, i.e. the staging pool never climbs above 600 again.
	drained := int64(0)
	deadline := time.Now().Add(5 * time.Second)
	for {
		store.mu.Lock()
		fetched := len(store.fetched)
		store.mu.Unlock()
		if fetched == files && store.StagedBytes() == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("plan stalled after shrink: %d of %d shipped, %d drained",
				fetched, files, drained)
		}
		if store.StagedBytes() > 0 {
			store.consume(size)
			drained += size
		}
		time.Sleep(20 * time.Microsecond)
	}
	sched.Wait()

	store.rmu.Lock()
	defer store.rmu.Unlock()
	if len(store.stagedAfter) != files/batch {
		t.Fatalf("shipped %d batches, want %d", len(store.stagedAfter), files/batch)
	}
	for i, st := range store.stagedAfter[callsAtShrink:] {
		if st > newBudget {
			t.Fatalf("post-shrink batch %d left %d bytes staged, over the new budget %d — live budget ignored",
				i, st, newBudget)
		}
	}
	if callsAtShrink >= len(store.stagedAfter) {
		t.Fatal("no batches shipped after the shrink; test proved nothing")
	}
}

// TestAdmissionSourceDrivesBudgetLive wires the external live-knob hook:
// the scheduler reads AdmissionSource on every decision, so flipping the
// atomic mid-plan reshapes admission with no scheduler call at all —
// here with a batch in flight rather than parked.
func TestAdmissionSourceDrivesBudgetLive(t *testing.T) {
	const files, size, batch = 16, 100, 4
	store := &recordingPlanStore{}
	paths := initFakeStore(&store.fakePlanStore, files, size)
	sampler := RangeSampler(paths, 1, 0, 1)
	plan := BuildPlan(sampler, store)

	var budget atomic.Int64
	budget.Store(2 * batch * size) // 800: two batches fit
	sched := NewScheduler(store, plan, SchedOptions{
		BatchFiles:      batch,
		AdmissionSource: budget.Load,
		Poll:            50 * time.Microsecond,
	})
	defer sched.Stop()

	waitFor(t, "source budget filled", func() bool {
		return store.StagedBytes() == budget.Load()
	})
	if st := store.StagedBytes(); st != 800 {
		t.Fatalf("staged %d with source budget 800", st)
	}

	// Shrink through the source only; drain and check the cap holds.
	budget.Store(batch * size) // 400
	store.rmu.Lock()
	callsAtShrink := store.recordCalls
	store.rmu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for {
		store.mu.Lock()
		fetched := len(store.fetched)
		store.mu.Unlock()
		if fetched == files {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("plan stalled: %d of %d shipped", fetched, files)
		}
		if store.StagedBytes() > 0 {
			store.consume(size)
		}
		time.Sleep(20 * time.Microsecond)
	}
	sched.Wait()

	store.rmu.Lock()
	defer store.rmu.Unlock()
	for i, st := range store.stagedAfter[callsAtShrink:] {
		if st > 400 {
			t.Fatalf("post-shrink batch %d staged to %d, over source budget 400", i, st)
		}
	}
}

// schedWaits reads the scheduler's admission-wait counter.
func schedWaits(s *Scheduler) int64 { return s.waits.Value() }

// waitFor polls cond until it holds or a generous deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Microsecond)
	}
}
