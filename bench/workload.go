package main

import (
	"math"

	"fanstore"
	"fanstore/internal/dataset"
)

// ranks is the world size of every workload: two load-generating
// goroutines and, over TCP, two connections.
const ranks = 2

// spec is one workload: a seeded dataset, how it is packed and mounted,
// and the loop that reads it. Everything not listed here runs at the
// program's defaults.
type spec struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json).
	why  string
	tcp  bool // RunTCP (loopback sockets) instead of the in-process mailbox
	kind dataset.Kind
	// files x size is the dataset; codec packs it.
	files, size int
	codec       string
	cacheBytes  int64 // decompressed cache per rank
	batch       int   // files per rank per iteration
	warmEpochs  int   // untimed epochs before the window
	preread     bool  // every rank reads every file once before warm-up
	// coldOpens selects the open_cold loop: rank 0 opens remote paths
	// one at a time with no prefetch, after warmOpens untimed opens.
	coldOpens bool
	warmOpens int
	// shape is what the traced run must read for the workload to count as
	// still exercising the layer it exists for.
	shape []expect
}

// expect bounds one per-layer metric of a workload's traced run to
// [min, max]; left at their zero values they demand exactly 0. rate marks
// a bound that only holds at full scale, where rates mean something;
// -smoke skips it.
type expect struct {
	metric   string
	min, max float64
	rate     bool
}

// start is the workload's launcher: loopback TCP or the in-process
// mailbox.
func (s spec) start(body func(*fanstore.Comm) error) error {
	if s.tcp {
		return fanstore.RunTCP(ranks, body)
	}
	return fanstore.Run(ranks, body)
}

// chunkOpens is how many opens open_cold groups into one "epoch": the
// unit of the throughput median, the RSS sample and the stop check.
const chunkOpens = 1000

var workloads = []spec{
	{
		name: "train_lz",
		why:  "Headline case: lzsse8 EM data, cache a quarter of it, over TCP; decode and cache churn do most of the work.",
		tcp:  true, kind: dataset.EM, files: 512, size: 256 << 10, codec: "lzsse8",
		cacheBytes: 32 << 20, batch: 8, warmEpochs: 2,
		// Three times train_raw's ceiling, so the two stay apart.
		shape: []expect{{metric: "codec.busy_frac", min: 0.45, max: math.Inf(1), rate: true}},
	},
	{
		name: "train_raw",
		why:  "Same loop on incompressible data stored raw: decode is bypassed, so TCP framing, rpc copies and the fetch plane dominate.",
		tcp:  true, kind: dataset.ImageNet, files: 512, size: 256 << 10, codec: "memcpy",
		cacheBytes: 32 << 20, batch: 8, warmEpochs: 2,
		shape: []expect{{metric: "codec.busy_frac", max: 0.15}},
	},
	{
		name: "train_cached",
		why:  "Working set fits the cache and is pre-read, in-process mailbox: all hits, no rpc; fs shim, meta, cache pin and copy-out only.",
		kind: dataset.EM, files: 1024, size: 128 << 10, codec: "lzsse8",
		cacheBytes: 256 << 20, batch: 8, warmEpochs: 1, preread: true,
		shape: []expect{
			{metric: "fanstore.cache.hit_ratio", min: 1, max: 1},
			{metric: "rpc.client.calls_per_kfile"},
			{metric: "fanstore.cache.evictions_per_file"},
		},
	},
	{
		name: "train_small",
		why:  "16384 files of 4 KiB with lz4hc over TCP: object- and message-rate bound, so per-file overheads show, not bandwidth.",
		tcp:  true, kind: dataset.Tokamak, files: 16384, size: 4 << 10, codec: "lz4hc",
		cacheBytes: 16 << 20, batch: 64, warmEpochs: 2,
		shape: []expect{{metric: "fanstore.store.objects_per_batched_fetch", min: 8, max: math.Inf(1), rate: true}},
	},
	{
		name: "open_cold",
		why:  "One outstanding Open of a remote raw file, cyclic over 8x the cache, no prefetch: every open is one rpc round trip over TCP.",
		tcp:  true, kind: dataset.ImageNet, files: 1024, size: 128 << 10, codec: "memcpy",
		cacheBytes: 8 << 20, coldOpens: true, warmOpens: 2000,
		shape: []expect{
			{metric: "fanstore.cache.hit_ratio"},
			{metric: "rpc.client.calls_per_kfile", min: 1000, max: 1000},
		},
	},
}

// smokeDiv is the -smoke sizing: datasets, caches and warm-up shrink by
// this factor so every workload and the traced run finish in seconds.
const smokeDiv = 16

// smoke returns the workload at test scale. Ratios (cache : data,
// files : batch) are kept; absolute rates are meaningless at this size.
func (s spec) smoke() spec {
	s.files /= smokeDiv
	s.cacheBytes /= smokeDiv
	s.warmOpens /= smokeDiv
	if s.warmEpochs > 1 {
		s.warmEpochs = 1
	}
	return s
}

func workloadByName(name string) (spec, bool) {
	for _, s := range workloads {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}
