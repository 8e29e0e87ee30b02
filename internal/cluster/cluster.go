// Package cluster defines the three evaluation platforms of §VII-A as
// simulation profiles — node counts, accelerators, local storage size and
// speed, and interconnect — plus the application profiles of Table V.
// These are the substitution for the physical GTX, V100 and CPU clusters;
// the ratios between compute, storage, and network speeds are what the
// experiments depend on, and those are taken from the paper's own
// measurements (Tables V and VI).
package cluster

import (
	"fmt"
	"time"

	"fanstore/internal/fsim"
	"fanstore/internal/selector"
	"fanstore/internal/simnet"
)

// Cluster is one test platform profile.
type Cluster struct {
	Name        string
	Nodes       int // maximum nodes available
	GPUsPerNode int // 0 for the CPU cluster
	// LocalStorageGB is the per-node burst buffer capacity M (Fig. 1).
	LocalStorageGB float64
	// Local is the FanStore read-path model on this node's local storage.
	Local fsim.Device
	// Raw is the raw local device (baseline rows of Table III).
	Raw fsim.Device
	// Fabric is the interconnect profile.
	Fabric simnet.Link
	// Shared is the shared-filesystem model (the Lustre comparison).
	Shared fsim.Lustre
}

// The three §VII-A platforms.
var (
	// GTX: 16 nodes x 4 GTX 1080 Ti, ~60 GB local SSD, FDR InfiniBand.
	GTX = Cluster{
		Name: "GTX", Nodes: 16, GPUsPerNode: 4, LocalStorageGB: 60,
		Local:  fsim.FanStoreDev,
		Raw:    fsim.SSD,
		Fabric: simnet.FDRInfiniband,
		Shared: fsim.DefaultLustre,
	}
	// V100: 4 nodes x 4 V100 on POWER9, ~256 GB RAM disk, FDR InfiniBand.
	V100 = Cluster{
		Name: "V100", Nodes: 4, GPUsPerNode: 4, LocalStorageGB: 256,
		// POWER9 pays a serialized per-op cost (the paper's 512 KB row is
		// overhead-bound at ~115 us/file), so Overhead rather than PerOp.
		Local: fsim.Device{
			Name: "FanStore/RAM", Overhead: 55 * time.Microsecond, BandwidthMBps: 10500,
		},
		Raw:    fsim.RAMDisk,
		Fabric: simnet.FDRInfiniband,
		Shared: fsim.DefaultLustre,
	}
	// CPU: 512 nodes x 2 Xeon Platinum 8160, ~144 GB SSD, Omni-Path.
	CPU = Cluster{
		Name: "CPU", Nodes: 512, GPUsPerNode: 0, LocalStorageGB: 144,
		Local:  fsim.Device{Name: "FanStore/SSD", PerOp: 34 * time.Microsecond, BandwidthMBps: 4900},
		Raw:    fsim.SSD,
		Fabric: simnet.OmniPath,
		Shared: fsim.DefaultLustre,
	}
)

// Clusters lists the three platforms.
func Clusters() []Cluster { return []Cluster{GTX, V100, CPU} }

// Procs returns the processor count for n nodes (GPUs, or CPU sockets x1).
func (c Cluster) Procs(n int) int {
	if c.GPUsPerNode > 0 {
		return n * c.GPUsPerNode
	}
	return n
}

// FanStorePerf converts the local read-path model into the selector's
// (files/s, MB/s) inputs for a given file size — the Table VI generator.
func (c Cluster) FanStorePerf(fileSize int64) selector.IOPerf {
	tpt := c.Local.FilesPerSec(fileSize)
	return selector.IOPerf{
		TptRead: tpt,
		BdwRead: tpt * float64(fileSize) / 1e6,
	}
}

// App is a Table V application profile plus the workload shape needed by
// the training simulator.
type App struct {
	Name string
	// Sync reports the I/O strategy of §VI-A.
	Sync bool
	// TIter is the profiled per-iteration compute time on this app's
	// home cluster with data in RAM (Table V).
	TIter time.Duration
	// CBatch is files per iteration per node.
	CBatch int
	// SBatchMB is the per-iteration uncompressed I/O quantity in MB.
	SBatchMB float64
	// GradientMB is the allreduce payload per iteration.
	GradientMB float64
	// FileKind names the dataset the app trains on (Table II).
	FileKind string
	// IOThreads is the per-node I/O parallelism (§VII-E1's 4-way).
	IOThreads int
}

// FileSizeBytes returns the mean file size implied by the profile.
func (a App) FileSizeBytes() int64 {
	if a.CBatch == 0 {
		return 0
	}
	return int64(a.SBatchMB / float64(a.CBatch) * 1e6)
}

// SelectorProfile converts to the selector's application inputs.
func (a App) SelectorProfile() selector.AppProfile {
	mode := selector.Async
	if a.Sync {
		mode = selector.Sync
	}
	return selector.AppProfile{
		Name: a.Name, IO: mode, TIter: a.TIter,
		CBatch: a.CBatch, SBatchMB: a.SBatchMB, Parallelism: a.IOThreads,
	}
}

// The Table V application rows (plus ResNet-50, used in §VII-F).
var (
	// SRGANonGTX: synchronous I/O, 9689 ms iterations.
	SRGANonGTX = App{
		Name: "SRGAN", Sync: true, TIter: 9689 * time.Millisecond,
		CBatch: 256, SBatchMB: 410, GradientMB: 60, FileKind: "EM", IOThreads: 4,
	}
	// SRGANonV100: the same model 4x faster (§VII-E3).
	SRGANonV100 = App{
		Name: "SRGAN", Sync: true, TIter: 2416 * time.Millisecond,
		CBatch: 256, SBatchMB: 410, GradientMB: 60, FileKind: "EM", IOThreads: 4,
	}
	// FRNNonCPU: asynchronous I/O over tiny tokamak records.
	FRNNonCPU = App{
		Name: "FRNN", Sync: false, TIter: 655 * time.Millisecond,
		CBatch: 512, SBatchMB: 0.615, GradientMB: 25, FileKind: "Tokamak", IOThreads: 4,
	}
	// ResNet50 on ImageNet: asynchronous (prefetching) input pipeline,
	// batch 256 per node at ~100 KB per JPEG (§VII-F).
	ResNet50 = App{
		Name: "ResNet-50", Sync: false, TIter: 350 * time.Millisecond,
		CBatch: 256, SBatchMB: 25.6, GradientMB: 100, FileKind: "ImageNet", IOThreads: 4,
	}
)

// Apps lists the evaluation applications.
func Apps() []App { return []App{SRGANonGTX, SRGANonV100, FRNNonCPU, ResNet50} }

// Case is one §VII pairing of an application and a platform, with Table
// VII's candidate compressors; the dataset it trains on is App.FileKind.
type Case struct {
	App        App
	Cluster    Cluster
	Candidates []string
}

// Cases is the table the commands' -case flags resolve against.
var Cases = map[string]Case{
	"srgan-gtx":  {SRGANonGTX, GTX, []string{"lzsse8", "lz4hc", "brotli", "zling", "lzma"}},
	"frnn-cpu":   {FRNNonCPU, CPU, []string{"lzf", "lzsse8", "brotli"}},
	"srgan-v100": {SRGANonV100, V100, []string{"lz4fast", "lz4hc", "brotli", "lzma"}},
	"resnet-gtx": {ResNet50, GTX, []string{"memcpy"}},
	"resnet-cpu": {ResNet50, CPU, []string{"memcpy"}},
}

// MinNodesForData returns the Fig. 1 data-capacity lower bound: the node
// count needed to hold datasetGB across local burst buffers at the given
// compression ratio.
func (c Cluster) MinNodesForData(datasetGB, ratio float64) int {
	if ratio < 1 {
		ratio = 1
	}
	per := c.LocalStorageGB * ratio
	n := int((datasetGB + per - 1e-9) / per)
	if float64(n)*per < datasetGB {
		n++
	}
	if n < 1 {
		n = 1
	}
	return n
}

func (c Cluster) String() string {
	return fmt.Sprintf("%s(%d nodes)", c.Name, c.Nodes)
}
