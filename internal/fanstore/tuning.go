// The node's live-tunable knob surface. Every accessor here is safe
// against concurrent data-path traffic: the knobs live in atomics (or
// resize through decomp.Pool's retire handshake), so the online
// autotuner (internal/tune) can move them mid-epoch while opens,
// fetches, and the plan scheduler keep running. Mount-only settings
// (CacheBytes, CacheShards, backend, redundancy) deliberately have no
// setters — see the knob-lifetimes note on Options.
package fanstore

import (
	"runtime"

	"fanstore/internal/rpc"
	"fanstore/internal/tune"
)

// DecodeWorkers reports the decode pool's current worker count.
func (n *Node) DecodeWorkers() int { return n.decode.Workers() }

// SetDecodeWorkers resizes the shared decode pool live (<=0: GOMAXPROCS)
// and returns the effective count. Queued decode jobs survive a shrink;
// see decomp.Pool.Resize.
func (n *Node) SetDecodeWorkers(workers int) int { return n.decode.Resize(workers) }

// BatchItems reports the current batched-fetch split size.
func (n *Node) BatchItems() int { return int(n.batchItems.Load()) }

// SetBatchItems sets the batched-fetch split size live (<=0 restores
// rpc.DefaultBatchItems). The next prefetch split reads it — no
// replanning needed.
func (n *Node) SetBatchItems(items int) {
	if items <= 0 {
		items = rpc.DefaultBatchItems
	}
	n.batchItems.Store(int64(items))
}

// AdmissionBytes reports the node's live staged-bytes budget (0: the
// plan scheduler falls back to live cache headroom). Hand this method
// to prefetch.SchedOptions.AdmissionSource so the scheduler tracks it
// mid-plan.
func (n *Node) AdmissionBytes() int64 { return n.admission.Load() }

// SetAdmissionBytes sets the staged-bytes budget the plan scheduler
// admits against (0: cache headroom; negatives clamp to 0). Takes
// effect at the scheduler's next admission decision.
func (n *Node) SetAdmissionBytes(v int64) {
	if v < 0 {
		v = 0
	}
	n.admission.Store(v)
}

// Knobs assembles the node's live knob set for a tune.Controller:
//
//   - "decode.workers": geometric in [1, 4xGOMAXPROCS].
//   - "batch.items": geometric in [4, 1024] objects per batched fetch.
//   - "admission.bytes": geometric in [1 MiB, cache capacity] — present
//     only when an explicit admission budget is already set, because in
//     headroom mode (0) there is no number to climb.
//
// The fidelity level is live too but deliberately not in this set: it
// trades accuracy for speed, which is a training-schedule decision
// (prefetch.FidelitySchedule + SetFidelity), not a latency optimization
// the controller should make on its own.
func (n *Node) Knobs() []tune.Knob {
	maxWorkers := int64(4 * runtime.GOMAXPROCS(0))
	knobs := []tune.Knob{
		tune.StepKnob("decode.workers", 1, maxWorkers,
			func() int64 { return int64(n.DecodeWorkers()) },
			func(v int64) { n.SetDecodeWorkers(int(v)) }),
		tune.StepKnob("batch.items", 4, 1024,
			func() int64 { return int64(n.BatchItems()) },
			func(v int64) { n.SetBatchItems(int(v)) }),
	}
	if n.AdmissionBytes() > 0 {
		knobs = append(knobs, tune.StepKnob("admission.bytes", 1<<20, n.cache.Capacity(),
			n.AdmissionBytes,
			func(v int64) { n.SetAdmissionBytes(v) }))
	}
	return knobs
}
