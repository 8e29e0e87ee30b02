// Package trainsim simulates distributed data-parallel DL training at the
// granularity the paper evaluates: per-iteration compute (profiled on the
// real application, Table V), gradient allreduce over the fabric, and the
// input pipeline — reads from a storage model, remote fetches over the
// interconnect, and decompression timed on the real codecs. It produces
// Fig. 1 (the efficiency/capacity tradeoff), Fig. 8 (per-compressor
// application performance), and Fig. 9 (weak scaling to 512 nodes).
//
// The substitution rationale: the paper's findings are statements about
// which of compute, read, decompression, and network is the binding
// resource per iteration. Those terms are reproduced individually — codec
// costs measured live on this host, device and fabric terms from the
// calibrated models — and composed with the same sync/async pipeline
// algebra of §VI-A (Fig. 5).
package trainsim

import (
	"fmt"
	"time"

	"fanstore/internal/cluster"
	"fanstore/internal/fsim"
)

// Config describes one training run.
type Config struct {
	App   cluster.App
	Clust cluster.Cluster
	// Nodes actually used (weak scaling sweeps this).
	Nodes int
	// DecompressPerFile is the measured per-file decode cost of the
	// chosen compressor on this dataset (zero for no compression).
	DecompressPerFile time.Duration
	// Ratio is the dataset compression ratio (1 for no compression).
	Ratio float64
	// Device overrides the read device (defaults to the cluster's
	// FanStore local path). Used for the Lustre and raw-SSD baselines.
	Device *fsim.Device
	// RemoteFrac is the fraction of each batch fetched from peer nodes
	// over the fabric. With a dataset scattered over N nodes and uniform
	// random sampling it is (N-1)/N; 0 models fully local data.
	RemoteFrac float64
}

// ratio returns the effective compression ratio (>= 1 semantics guarded).
func (c Config) ratio() float64 {
	if c.Ratio <= 0 {
		return 1
	}
	return c.Ratio
}

func (c Config) device() fsim.Device {
	if c.Device != nil {
		return *c.Device
	}
	return c.Clust.Local
}

func (c Config) ioThreads() int {
	if c.App.IOThreads < 1 {
		return 1
	}
	return c.App.IOThreads
}

// IOTime returns the per-iteration input-pipeline wall time on one node:
// read CBatch compressed files (IOThreads-way parallel), fetch the remote
// fraction over the fabric, and decompress.
func (c Config) IOTime() time.Duration {
	app := c.App
	threads := c.ioThreads()
	compSize := int64(float64(app.FileSizeBytes()) / c.ratio())
	dev := c.device()

	perFile := float64(dev.ReadTime(compSize))
	if c.RemoteFrac > 0 && c.Nodes > 1 {
		perFile += c.RemoteFrac * float64(c.Clust.Fabric.Transfer(compSize))
	}
	read := perFile * float64(app.CBatch) / float64(threads)
	decomp := float64(c.DecompressPerFile) * float64(app.CBatch) / float64(threads)
	return time.Duration(read + decomp)
}

// ComputeTime returns the per-iteration compute time including the
// inter-node gradient allreduce. TIter already contains the single-node
// cost (forward, backward, intra-node reduction).
func (c Config) ComputeTime() time.Duration {
	t := c.App.TIter
	if c.Nodes > 1 {
		t += c.Clust.Fabric.Allreduce(int64(c.App.GradientMB*1e6), c.Nodes)
	}
	return t
}

// IterTime is the per-iteration wall time of the configuration.
func (c Config) IterTime() time.Duration { return c.iterTime(c.IOTime()) }

// iterTime composes an I/O term with compute per §VI-A: serial for
// synchronous I/O (Fig. 5a), overlapped for asynchronous (Fig. 5b). What
// the consumer stalls for is the result minus ComputeTime.
func (c Config) iterTime(io time.Duration) time.Duration {
	compute := c.ComputeTime()
	if c.App.Sync {
		return compute + io
	}
	if io > compute {
		return io
	}
	return compute
}

// Throughput returns global samples/second.
func (c Config) Throughput() float64 {
	return float64(c.App.CBatch*c.Nodes) / c.IterTime().Seconds()
}

// NumIters applies the §II-A identity:
// num_iter = num_epoch * data_size / batch_size.
func NumIters(epochs, dataSize, globalBatch int) int {
	if globalBatch <= 0 {
		return 0
	}
	return epochs * dataSize / globalBatch
}

// TrainTime returns the wall time for a full training run of the given
// epoch count over dataSize files.
func (c Config) TrainTime(epochs, dataSize int) time.Duration {
	iters := NumIters(epochs, dataSize, c.App.CBatch*c.Nodes)
	return time.Duration(iters) * c.IterTime()
}

// RelativePerf returns this configuration's throughput as a fraction of a
// baseline with local uncompressed data (the Fig. 8 y-axis).
func (c Config) RelativePerf() float64 {
	base := c
	base.DecompressPerFile = 0
	base.Ratio = 1
	base.Device = nil
	return base.IterTime().Seconds() / c.IterTime().Seconds()
}

// ScalingPoint is one node count of a weak-scaling sweep.
type ScalingPoint struct {
	Nodes      int
	Throughput float64 // samples/s
	Efficiency float64 // vs. linear scaling of the single-node run
}

// WeakScaling sweeps node counts with fixed per-node batch, reporting
// efficiency against linear scaling of the single-node configuration
// (the Fig. 9 methodology). The data is scattered, so the remote
// fraction grows as (n-1)/n.
func WeakScaling(base Config, nodeCounts []int) []ScalingPoint {
	single := base
	single.Nodes = 1
	single.RemoteFrac = 0
	t1 := single.Throughput()
	out := make([]ScalingPoint, 0, len(nodeCounts))
	for _, n := range nodeCounts {
		cfg := base
		cfg.Nodes = n
		cfg.RemoteFrac = float64(n-1) / float64(n)
		tp := cfg.Throughput()
		out = append(out, ScalingPoint{
			Nodes:      n,
			Throughput: tp,
			Efficiency: tp / (float64(n) * t1),
		})
	}
	return out
}

// LustreScaling models the same sweep reading from the shared filesystem:
// every node's I/O threads contend for the same metadata server and OST
// bandwidth, and training cannot start until the §II-B1 metadata storm
// (every process enumerating the dataset) drains.
type LustreRun struct {
	Point   ScalingPoint
	Startup time.Duration // metadata enumeration before iteration 1
}

// LustreScalingAt evaluates one node count.
func LustreScalingAt(base Config, n int, datasetFiles, datasetDirs int, t1 float64) LustreRun {
	shared := base.Clust.Shared
	shared.Clients = n * base.ioThreads()
	dev := shared.Device()
	cfg := base
	cfg.Nodes = n
	cfg.Device = &dev
	cfg.RemoteFrac = 0 // all traffic already goes to the shared FS
	tp := cfg.Throughput()
	return LustreRun{
		Point: ScalingPoint{
			Nodes:      n,
			Throughput: tp,
			Efficiency: tp / (float64(n) * t1),
		},
		Startup: shared.MetadataStormTime(n, datasetFiles, datasetDirs),
	}
}

// Fig1Point is one node count of the efficiency/capacity model.
type Fig1Point struct {
	Nodes      int
	Feasible   bool    // data fits the aggregate burst buffers
	Efficiency float64 // processor utilization bound
}

// EfficiencyModel reproduces Fig. 1 and the §I worked example: with
// maximum useful batch B_max and minimum per-processor batch b for full
// utilization, N_proc processors run at min(1, B_max/(b*N_proc)); and the
// dataset only fits when N*M*ratio >= |T|.
func EfficiencyModel(c cluster.Cluster, datasetGB float64, bMax, bMin int, ratio float64, nodeCounts []int) []Fig1Point {
	minNodes := c.MinNodesForData(datasetGB, ratio)
	out := make([]Fig1Point, 0, len(nodeCounts))
	for _, n := range nodeCounts {
		procs := c.Procs(n)
		eff := float64(bMax) / (float64(bMin) * float64(procs))
		if eff > 1 {
			eff = 1
		}
		out = append(out, Fig1Point{
			Nodes:      n,
			Feasible:   n >= minNodes,
			Efficiency: eff,
		})
	}
	return out
}

// String renders a scaling point for harness output.
func (p ScalingPoint) String() string {
	return fmt.Sprintf("nodes=%-4d throughput=%.0f/s efficiency=%.1f%%", p.Nodes, p.Throughput, p.Efficiency*100)
}

// Chunked models the §III "technical workaround" baseline: the dataset is
// divided into per-node chunks, each node trains only on its own chunk
// (all I/O local, no global view), and every few epochs the chunks are
// permuted across nodes so the global view is eventually maintained.
// The price is the periodic permutation traffic — and a model-quality
// risk the paper flags (time-divided variance) that no performance model
// can capture.
type Chunked struct {
	Base Config
	// PermuteEvery is the epoch interval between chunk permutations.
	PermuteEvery int
	// DatasetBytes is the total dataset size; each node's chunk is
	// DatasetBytes/Nodes and moves in full at every permutation.
	DatasetBytes int64
}

// EpochTime is the per-epoch training time: all reads are local.
func (c Chunked) EpochTime(dataSize int) time.Duration {
	cfg := c.Base
	cfg.RemoteFrac = 0
	iters := NumIters(1, dataSize, cfg.App.CBatch*cfg.Nodes)
	return time.Duration(iters) * cfg.IterTime()
}

// PermuteTime is the cost of one chunk rotation: every node ships its
// whole chunk to its ring neighbor (contention-free, so one transfer).
func (c Chunked) PermuteTime() time.Duration {
	if c.Base.Nodes <= 1 {
		return 0
	}
	chunk := c.DatasetBytes / int64(c.Base.Nodes)
	return c.Base.Clust.Fabric.Transfer(chunk)
}

// TrainTime composes epochs and permutations.
func (c Chunked) TrainTime(epochs, dataSize int) time.Duration {
	t := time.Duration(epochs) * c.EpochTime(dataSize)
	if c.PermuteEvery > 0 && c.Base.Nodes > 1 {
		permutes := (epochs - 1) / c.PermuteEvery
		t += time.Duration(permutes) * c.PermuteTime()
	}
	return t
}

// GlobalViewTrainTime is the FanStore-style equivalent for comparison:
// a true global view with uniform random sampling, paying the remote
// fraction on every batch and no permutation phases.
func (c Chunked) GlobalViewTrainTime(epochs, dataSize int) time.Duration {
	cfg := c.Base
	cfg.RemoteFrac = float64(cfg.Nodes-1) / float64(cfg.Nodes)
	iters := NumIters(epochs, dataSize, cfg.App.CBatch*cfg.Nodes)
	return time.Duration(iters) * cfg.IterTime()
}

// Breakdown decomposes one iteration into its resource terms — the
// quantities Eqs. 1-3 reason about. It is the "why" behind a RelativePerf
// number: which of compute, read, transfer, and decompression binds.
type Breakdown struct {
	Compute        time.Duration // single-node forward+backward (T_iter)
	Allreduce      time.Duration // inter-node gradient exchange
	Read           time.Duration // local device time for the batch
	RemoteTransfer time.Duration // fabric time for the remote fraction
	Decompress     time.Duration // codec time for the batch
	Iter           time.Duration // composed per §VI-A
	// Bound names the binding resource: "io" or "compute" for async
	// pipelines, "serial" for synchronous ones (everything adds up).
	Bound string
}

// Explain returns the iteration breakdown for this configuration.
func (c Config) Explain() Breakdown {
	app := c.App
	compSize := int64(float64(app.FileSizeBytes()) / c.ratio())
	batch := float64(app.CBatch) / float64(c.ioThreads())

	b := Breakdown{
		Compute:    app.TIter,
		Read:       time.Duration(float64(c.device().ReadTime(compSize)) * batch),
		Decompress: time.Duration(float64(c.DecompressPerFile) * batch),
		Iter:       c.IterTime(),
	}
	if c.Nodes > 1 {
		b.Allreduce = c.Clust.Fabric.Allreduce(int64(app.GradientMB*1e6), c.Nodes)
	}
	if c.RemoteFrac > 0 && c.Nodes > 1 {
		b.RemoteTransfer = time.Duration(c.RemoteFrac * float64(c.Clust.Fabric.Transfer(compSize)) * batch)
	}
	switch {
	case app.Sync:
		b.Bound = "serial"
	case c.IOTime() > c.ComputeTime():
		b.Bound = "io"
	default:
		b.Bound = "compute"
	}
	return b
}
