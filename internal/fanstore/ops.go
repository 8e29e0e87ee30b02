package fanstore

// The node side of the live operations plane: glue that mounts the
// obs HTTP server over one rank's registry, tracer, event log, and
// cluster state. Everything here is pull-only — handlers read through
// the same snapshot/copy APIs the end-of-run exports use, and nothing
// is constructed unless the operator asked for an ops endpoint.

import (
	"fmt"

	"fanstore/internal/obs"
)

// Events returns the node's ops-plane event log (nil unless
// Options.Events was set, in which case event emission is disabled at
// zero cost).
func (n *Node) Events() *obs.EventLog { return n.events }

// OpsHealth folds the node's live cluster state into the /healthz
// payload. The verdict stays OK while reads are being served — a
// rebalancing or EC-degraded rank is busy, not down, and answering
// 503 would invite a prober to pull a member that is doing exactly
// what the protocol intends. State and the counts distinguish the
// regimes for operators who care.
func (n *Node) OpsHealth() obs.Health {
	h := obs.Health{OK: true, State: "ok", MapVersion: n.view.Version()}
	if n.closed.Load() {
		h.OK = false
		h.State = "closed"
		h.Detail = "node is shut down"
		return h
	}
	if pending := n.RebalancePending(); pending > 0 {
		h.State = "rebalancing"
		h.RebalancePending = int(pending)
	}
	if deg := n.ecDegradedCount(); deg > 0 {
		h.State = "degraded"
		h.DegradedParts = deg
		h.Detail = fmt.Sprintf("%d partition(s) served via EC reconstruction", deg)
	}
	return h
}

// WriteStatus appends the node's component lines to /statusz.
func (n *Node) WriteStatus(sw *obs.StatusWriter) {
	sw.Section("fanstore")
	sw.KV("rank", n.Rank())
	sw.KV("node.id", n.selfID)
	sw.KV("elastic", n.ectrl != nil)
	red := "replicate"
	if n.ec != nil {
		red = fmt.Sprintf("ec(%d,%d)", n.ec.code.K(), n.ec.code.M())
	}
	sw.KV("redundancy", red)
	sw.KV("map.version", n.view.Version())
	sw.KV("files.global", n.NumFiles())
	sw.KV("files.local", n.LocalFiles())
	cs := n.cache.Stats()
	sw.KV("cache.capacity", n.cache.Capacity())
	sw.KV("cache.used", cs.Used)
	sw.KV("cache.pinned.bytes", cs.PinnedBytes)
	sw.KV("cache.staged.bytes", cs.StagedBytes)
	sw.KV("cache.headroom", n.cache.Headroom())
	sw.KV("rebalance.pending", n.RebalancePending())
	sw.KV("rebalance.bytes", n.RebalancedBytes())
	if n.ec != nil {
		sw.KV("ec.degraded.parts", n.ecDegradedCount())
	}
	if a := n.AdmissionBytes(); a > 0 {
		sw.KV("admission.bytes", a)
	} else {
		sw.KV("admission.bytes", "headroom")
	}
}

// StartOps binds addr and serves this rank's ops endpoints —
// /metrics, /varz, /series, /healthz, /statusz, /trace, /events, and
// /debug/pprof — over the node's registry, tracer, and event log.
// The caller owns the returned server and must Close it; the node's
// own Close does not reach into the ops plane.
func (n *Node) StartOps(addr string) (*obs.Server, error) {
	return obs.Serve(addr, obs.ServerOptions{
		Registry: n.reg,
		Tracer:   n.tracer,
		Events:   n.events,
		Health:   n.OpsHealth,
		Status:   n.WriteStatus,
	})
}
