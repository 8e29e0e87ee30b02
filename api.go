// Package fanstore is the public API of this FanStore reproduction: a
// distributed, compressed, POSIX-style object store for deep-learning
// training data, after "Efficient I/O for Neural Network Training with
// Compressed Data" (IPPS 2020).
//
// The typical flow mirrors the paper's workflow:
//
//  1. Prepare: pack a dataset into compressed partitions once
//     (Pack / the fanstore-prep command).
//  2. Launch: start one rank per node (Run) and Mount each rank's
//     partitions; metadata is exchanged collectively so every rank sees
//     the whole namespace from RAM.
//  3. Train: read files through the POSIX-style surface (Open/Read/
//     Stat/ReadDir); writes (checkpoints, logs) go through Create.
//  4. Choose a compressor with SelectCompressor, which applies the
//     paper's Eq. 1-3 selection algorithm to measured candidates.
//
// Implementation packages live under internal/: codec (the compressor
// suite), pack (the partition format), mpi (the SPMD runtime), rpc (the
// daemon's request/response wire layer), fanstore (the store itself),
// selector, dataset, tfrecord, fsim/simnet/cluster/trainsim (the
// evaluation substrates), and experiments (the harness regenerating
// every table and figure).
package fanstore

import (
	"io"
	"time"

	"fanstore/internal/codec"
	store "fanstore/internal/fanstore"
	"fanstore/internal/metrics"
	"fanstore/internal/mpi"
	"fanstore/internal/obs"
	"fanstore/internal/pack"
	"fanstore/internal/selector"
	"fanstore/internal/trace"
)

// Core store types.
type (
	// Node is one rank's FanStore instance: local compressed objects,
	// the global metadata table, the decompression cache, and the
	// daemon serving peers.
	Node = store.Node
	// File is an open FanStore file descriptor.
	File = store.File
	// Options configures Mount (cache size/policy, replica partitions).
	Options = store.Options
	// Info is the stat() result.
	Info = store.Info
	// DirEntry is one readdir() result.
	DirEntry = store.DirEntry
	// Policy selects the cache replacement strategy.
	Policy = store.Policy
	// Backend stores a rank's compressed objects, aliasing heap or
	// mapped partition blobs; Options.Backend accepts custom
	// implementations for testing or alternative storage tiers.
	Backend = store.Backend
)

// Cache policies (§IV-C3; FIFO is the paper's choice).
const (
	FIFO      = store.FIFO
	LRU       = store.LRU
	Immediate = store.Immediate
)

// Runtime types.
type (
	// Comm is one rank's communicator (Send/Recv/Allgather/Barrier).
	Comm = mpi.Comm
	// InputFile is one source file handed to Pack.
	InputFile = pack.InputFile
	// BuildOptions configures Pack.
	BuildOptions = pack.BuildOptions
	// Bundle is Pack's output: scatter partitions plus a broadcast
	// partition.
	Bundle = pack.Bundle
)

// Selection types (§VI-B).
type (
	// AppProfile carries the application inputs of Table V.
	AppProfile = selector.AppProfile
	// IOPerf is measured FanStore read performance (Table VI).
	IOPerf = selector.IOPerf
	// Candidate is one compressor's measured cost and ratio.
	Candidate = selector.Candidate
	// Choice is a per-candidate selection verdict.
	Choice = selector.Choice
)

// I/O modes for AppProfile.
const (
	SyncIO  = selector.Sync
	AsyncIO = selector.Async
)

// Observability types: the per-rank span tracer, the unified metrics
// registry, and the cluster-wide aggregated report.
type (
	// Tracer records per-operation spans into a fixed-size ring buffer;
	// pass one via Options.Tracer. A nil *Tracer disables tracing at
	// zero cost on the hot path.
	Tracer = trace.Tracer
	// Registry is the named metrics table shared by every component of a
	// rank; pass one via Options.Metrics to unify cache, rpc, store, and
	// pipeline instruments under a single snapshot.
	Registry = metrics.Registry
	// RegistrySnapshot is a serializable point-in-time copy of a
	// registry, mergeable across ranks.
	RegistrySnapshot = metrics.RegistrySnapshot
	// ClusterReport is the merged view of every rank's snapshot with
	// straggler detection.
	ClusterReport = store.ClusterReport
	// ReportOptions configures the cluster report reduction.
	ReportOptions = store.ReportOptions
)

// Live operations plane (internal/obs): the embedded per-rank HTTP ops
// server, the rolling time-series sampler behind its /series endpoint,
// the structured event log the store's fault paths emit into, and the
// continuous cluster health monitor. Nothing here touches the data
// path unless constructed — a run without an ops address pays zero
// goroutines and zero allocations for the plane's existence.
type (
	// EventLog is the bounded ring of structured operational events
	// (failovers, map changes, rebalances, degraded reads, stragglers);
	// pass one via Options.Events. A nil *EventLog disables emission at
	// zero cost.
	EventLog = obs.EventLog
	// OpsServer serves /metrics, /varz, /series, /healthz, /statusz,
	// /trace, /events and /debug/pprof for one rank.
	OpsServer = obs.Server
	// OpsServerOptions wires an OpsServer to a rank's registry, tracer,
	// event log, and health callback.
	OpsServerOptions = obs.ServerOptions
	// Sampler snapshots a registry on a fixed interval into a rolling
	// ring of delta windows (counter rates, windowed quantiles).
	Sampler = obs.Sampler
	// HealthMonitor continuously polls member snapshots and keeps a
	// live straggler verdict using the cluster report's detector.
	HealthMonitor = obs.Monitor
	// HealthMonitorOptions configures a HealthMonitor.
	HealthMonitorOptions = obs.MonitorOptions
	// Health is the /healthz payload.
	Health = obs.Health
)

// NewEventLog builds an event log for rank with a bounded ring of the
// given capacity (the package default when <= 0).
func NewEventLog(rank, capacity int) *EventLog { return obs.NewEventLog(rank, capacity) }

// ServeOps binds addr and serves the ops endpoints for the wired
// sources; Node.StartOps is the one-call version for a mounted store.
func ServeOps(addr string, o OpsServerOptions) (*OpsServer, error) { return obs.Serve(addr, o) }

// NewHealthMonitor builds a cluster health monitor; Start polls
// continuously, Poll drives one round manually.
func NewHealthMonitor(o HealthMonitorOptions) *HealthMonitor { return obs.NewMonitor(o) }

// FlagStragglers adapts the cluster report's straggler detector to the
// health monitor's Flag shape, so live and post-run verdicts share one
// methodology.
func FlagStragglers(opts ReportOptions) func([]RegistrySnapshot) []int {
	return store.FlagStragglers(opts)
}

// CollectRegistries is the monitor Collect source for in-process
// multi-rank runs: every rank's registry read directly.
func CollectRegistries(regs []*Registry) func() ([]RegistrySnapshot, error) {
	return obs.CollectRegistries(regs)
}

// CollectHTTP is the monitor Collect source for multi-process
// deployments: each member's /varz scraped over HTTP.
func CollectHTTP(addrs []string, timeout time.Duration) func() ([]RegistrySnapshot, error) {
	return obs.CollectHTTP(addrs, timeout)
}

// OpsAddrForRank shifts an ops listen address's port by rank — the
// convention in-process multi-rank commands use so every rank gets its
// own endpoint (":0" passes through unchanged).
func OpsAddrForRank(addr string, rank int) (string, error) { return obs.OffsetAddr(addr, rank) }

// NewTracer builds a span tracer for rank with a ring of the given
// capacity (the package default when <= 0).
func NewTracer(rank, capacity int) *Tracer { return trace.New(rank, capacity) }

// NewRegistry builds an empty metrics registry.
func NewRegistry() *Registry { return metrics.NewRegistry() }

// WriteChromeTrace merges the tracers' spans and writes Chrome
// trace-event JSON, loadable in Perfetto or chrome://tracing with one
// track per rank.
func WriteChromeTrace(w io.Writer, tracers ...*Tracer) error {
	return trace.WriteChrome(w, tracers...)
}

// GatherReport is the cluster-report collective: every rank contributes
// its registry snapshot via Allgather and all ranks return the same
// merged report. Every rank must call it together.
func GatherReport(c *Comm, reg *Registry, opts ReportOptions) (ClusterReport, error) {
	return store.GatherReport(c, reg, opts)
}

// WriteSummary renders one registry snapshot — a rank's
// (Node.Registry().Snapshot()) or a report's Merged — as the end-of-run
// read-out, with files/s over elapsed (0 omits rates). It is the only
// formatter of a node's numbers: ClusterReport.Render prints its totals
// through it, so a rank and the cluster read the same way.
func WriteSummary(w io.Writer, snap RegistrySnapshot, elapsed time.Duration) {
	store.WriteSummary(w, snap, elapsed)
}

// BuildClusterReport folds per-rank snapshots (index = rank) into a
// cluster report without a communicator — the simulator's path.
func BuildClusterReport(snaps []RegistrySnapshot, opts ReportOptions) ClusterReport {
	return store.BuildClusterReport(snaps, opts)
}

// Run starts n FanStore ranks in-process, invoking f with each rank's
// communicator, and returns the first error. It is the substitution for
// an mpiexec launch (§V-D).
func Run(n int, f func(*Comm) error) error { return mpi.Run(n, f) }

// RunTCP is Run with messages carried over real loopback TCP sockets,
// exercising serialization and the kernel network stack.
func RunTCP(n int, f func(*Comm) error) error { return mpi.RunTCP(n, f) }

// JoinTCP joins a world of separate OS processes through a rendezvous
// directory — the paper's mpiexec deployment shape. Each process calls it
// with its own rank; the returned leave function releases the transport.
// cmd/fanstore-daemon is the ready-made per-node process built on it.
func JoinTCP(dir string, rank, size int, timeout time.Duration) (*Comm, func(), error) {
	return mpi.JoinTCP(dir, rank, size, timeout)
}

// JoinTCPMembers is JoinTCP for elastic deployments: the world spans
// size slots but this rank only waits for the listed initial members;
// the other slots' addresses resolve lazily when they come up. Pair it
// with MountElastic/JoinCluster for multi-process elastic clusters.
func JoinTCPMembers(dir string, rank, size int, waitFor []int, timeout time.Duration) (*Comm, func(), error) {
	return mpi.JoinTCPMembers(dir, rank, size, waitFor, timeout)
}

// Mount loads this rank's partitions, builds the global metadata view
// collectively, and starts the FanStore daemon. Every rank must call it.
func Mount(c *Comm, partitions [][]byte, broadcast []byte, opts Options) (*Node, error) {
	return store.Mount(c, partitions, broadcast, opts)
}

// ElasticOptions configures an elastic mount: the usual Options plus the
// initial member count and the per-node capacity used by rebalance
// planning.
type ElasticOptions = store.ElasticOptions

// MountElastic mounts a FanStore whose membership can change while it
// serves: ranks 0..InitialMembers-1 of the world form the cluster under
// a versioned cluster map (rank 0 coordinates), and the remaining world
// slots stay free for JoinCluster. Growing and shrinking trigger online
// delta rebalances; reads are served throughout.
func MountElastic(c *Comm, partitions [][]byte, opts ElasticOptions) (*Node, error) {
	return store.MountElastic(c, partitions, opts)
}

// JoinCluster adds this rank to a running elastic cluster mid-training:
// it is admitted to the cluster map, downloads the metadata table, and
// returns once the triggered rebalance has moved its share of the
// partitions onto it.
func JoinCluster(c *Comm, coordRank int, opts ElasticOptions) (*Node, error) {
	return store.JoinCluster(c, coordRank, opts)
}

// Redundancy is the mount-time redundancy selection for elastic mounts:
// none (the zero value), under which a dead owner's data is lost and
// reads of it return ErrLost, or ec(k,m) erasure coding, which stripes
// every partition into k data + m parity shards held by nodes other than
// its owner and keeps objects readable through degraded reconstruction
// when up to m members die. ec(1,m) is (m+2)-way mirroring.
type Redundancy = store.Redundancy

// ParseRedundancy parses the flag syntax: "none" (or empty) and
// "ec(k,m)", e.g. "ec(4,2)".
func ParseRedundancy(s string) (Redundancy, error) { return store.ParseRedundancy(s) }

// RingReplicate passes each rank's partitions to its ring neighbor and
// returns the predecessor's, for placing extra replicas without touching
// the shared filesystem (§V-D).
func RingReplicate(c *Comm, partitions [][]byte) ([][]byte, error) {
	return store.RingReplicate(c, partitions)
}

// NewRAMBackend returns the default storage backend: compressed objects
// alias the partition blobs, heap or mapped from local disk, so
// uncompressed datasets can be served zero-copy.
func NewRAMBackend() Backend { return store.NewRAMBackend() }

// Pack runs the data preparation tool (§V-B): it compresses every input
// file and serializes the partitioned compressed representation.
func Pack(files []InputFile, opts BuildOptions) (*Bundle, error) {
	return pack.Build(files, opts)
}

// Placement assigns partitions to nodes (§IV-C1).
type Placement = store.Placement

// PlanPlacement decides which partitions each node loads, filling spare
// capacity with ring-neighbor replicas (§IV-C1, §V-D).
func PlanPlacement(partSizes []int64, nodes int, capacity int64) (*Placement, error) {
	return store.PlanPlacement(partSizes, nodes, capacity)
}

// Move is one partition changing node in a delta placement.
type Move = store.Move

// PlanDelta re-plans a placement after the node count changes, moving as
// few partition bytes as possible: partitions keep their previous owner
// whenever it still exists and has room, and only the remainder (plus
// whatever a bounded balance pass shifts) moves.
func PlanDelta(partSizes []int64, prevOwner []int, nodes int, capacity int64) (*Placement, []Move, error) {
	return store.PlanDelta(partSizes, prevOwner, nodes, capacity)
}

// SelectCompressor applies the §VI-B selection algorithm: among measured
// candidates, the one with the highest compression ratio whose
// decompression fits the Eq. 1/2 budget. ok is false when none does.
func SelectCompressor(app AppProfile, perf IOPerf, cands []Candidate) (Choice, bool) {
	return selector.Select(app, perf, cands)
}

// MeasureCandidate profiles one codec configuration (by registry name or
// paper alias such as "lzsse8" or "lzma") on sample files.
func MeasureCandidate(name string, samples [][]byte) (Candidate, error) {
	return selector.MeasureCandidate(name, samples)
}

// Compressors returns the names of every registered codec configuration
// (the 192-configuration sweep space of §VII-D).
func Compressors() []string {
	cfgs := codec.Registry()
	out := make([]string, len(cfgs))
	for i, c := range cfgs {
		out[i] = c.Name
	}
	return out
}

// Errors re-exported from the store.
var (
	ErrNotExist = store.ErrNotExist
	ErrExist    = store.ErrExist
	ErrIsDir    = store.ErrIsDir
	ErrNotDir   = store.ErrNotDir
	ErrClosed   = store.ErrClosed
	// ErrVanished reports a remote read whose every candidate
	// authoritatively no longer has the object (deleted or lost), as
	// opposed to unreachable peers or a stale map.
	ErrVanished = store.ErrVanished
	// ErrLost reports a read whose owner the reader's cluster map marks
	// dead, when no copy of its partition survives: always under
	// redundancy none, and under ec(k,m) once fewer than k shards do.
	ErrLost = store.ErrLost
)
