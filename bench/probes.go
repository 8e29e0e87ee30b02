package main

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"

	"fanstore"
	"fanstore/internal/codec"
	"fanstore/internal/decomp"
	"fanstore/internal/pack"
	"fanstore/internal/rpc"
)

// The (P) metrics: isolated probes of single layers, fed the workload's
// own objects over the workload's own transport. Each runs a fixed number
// of operations on one goroutine and reports the median of probeBatches
// batches; allocations are process-wide MemStats deltas over all
// batches, so a probe's peer (the echoing rank, the daemon) is included.

const probeBatches = 9

// probeStat is one probe's cost per operation.
type probeStat struct{ ns, allocs, bytes float64 }

func (p probeStat) us() float64 { return p.ns / 1e3 }

// probe times ops calls of fn per batch. before, if set, runs untimed
// ahead of each batch.
func probe(ops int, before func() error, fn func() error) (probeStat, error) {
	if ops <= 0 {
		return probeStat{}, nil
	}
	var perOp []float64
	var allocs, bytes uint64
	var ms0, ms1 runtime.MemStats
	for b := 0; b < probeBatches; b++ {
		if before != nil {
			if err := before(); err != nil {
				return probeStat{}, err
			}
		}
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			if err := fn(); err != nil {
				return probeStat{}, err
			}
		}
		el := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		perOp = append(perOp, float64(el)/float64(ops))
		allocs += ms1.Mallocs - ms0.Mallocs
		bytes += ms1.TotalAlloc - ms0.TotalAlloc
	}
	n := float64(ops * probeBatches)
	return probeStat{ns: median(perOp), allocs: float64(allocs) / n, bytes: float64(bytes) / n}, nil
}

// localProbes times the layers that need no world: the codec over the
// workload's packed entries and a decode-pool dispatch. It returns the
// median object size on the wire, the frame the transport probes carry.
func localProbes(sp spec, bundle *fanstore.Bundle, out map[string]float64) (frame int, err error) {
	part, err := pack.Parse(bundle.Scatter[0])
	if err != nil {
		return 0, err
	}
	entries := part.Entries
	if len(entries) == 0 {
		return 0, errors.New("probe: empty partition")
	}
	sizes := make([]int, len(entries))
	for i := range entries {
		sizes[i] = len(entries[i].Data) + 2 // the wire prefixes the compressor id
	}
	sort.Ints(sizes)
	frame = sizes[len(sizes)/2]

	pool := decomp.New(0, nil)
	defer pool.Close()
	if n := (16 << 20) / sp.size; len(entries) > n {
		entries = entries[:n]
	}
	// The decode runs on a pool worker to borrow its scratch, as the
	// store's decodes do.
	var dec probeStat
	pool.Run(decomp.PriOpen, func(s *codec.Scratch) {
		var dst []byte
		i := 0
		dec, err = probe(len(entries), nil, func() error {
			e := &entries[i%len(entries)]
			i++
			cfg, ok := codec.ByID(e.CompressorID)
			if !ok {
				return fmt.Errorf("probe: unknown compressor id %d", e.CompressorID)
			}
			var derr error
			dst, derr = codec.DecompressScratch(cfg.Codec, s, dst[:0], e.Data)
			return derr
		})
	})
	if err != nil {
		return 0, err
	}
	out["codec.decode_us"] = dec.us()
	out["codec.decode_mb_per_s"] = ratio(float64(sp.size)*1e3, dec.ns)

	disp, err := probe(5000, nil, func() error {
		pool.Run(decomp.PriOpen, func(*codec.Scratch) {})
		return nil
	})
	out["decomp.dispatch_us"] = disp.us()
	return frame, err
}

// Tags of the transport probes.
const (
	tagPing = iota + 1
	tagPong
	tagGo
	tagMatch
	tagBatchDone
	tagCall
	tagBacklog   = 1000    // .. +backlog
	tagResponses = 1 << 20 // rpc response tags grow from here
	backlog      = 256
)

// transportProbes times mpi and rpc between two ranks over the
// workload's transport: a ping-pong whose reply is one object frame, an
// rpc call returning the same frame, and Recv of a delivered frame from
// behind a backlog of unmatched tags.
func transportProbes(sp spec, frame int, out map[string]float64) error {
	payload := make([]byte, frame)
	req := make([]byte, 48) // an op byte and a path
	return sp.start(func(c *fanstore.Comm) error {
		if c.Rank() == 1 {
			return probePeer(c, payload)
		}
		rtt, err := probe(300, nil, func() error {
			if err := c.Send(1, tagPing, req); err != nil {
				return err
			}
			_, _, err := c.Recv(1, tagPong)
			return err
		})
		if err != nil {
			return err
		}
		if err := c.Send(1, tagPing, nil); err != nil {
			return err
		}
		out["mpi.rtt_us"] = rtt.us()
		out["mpi.alloc_bytes_per_msg"] = rtt.bytes / 2
		out["mpi.allocs_per_msg"] = rtt.allocs / 2

		cl := rpc.NewClient(c, tagCall, tagResponses, rpc.ClientOptions{})
		call, err := probe(300, nil, func() error {
			_, err := cl.Call(1, req)
			return err
		})
		if err != nil {
			return err
		}
		if err := c.Barrier(); err != nil { // lets the peer stop its server
			return err
		}
		out["rpc.call_us"] = call.us()
		out["rpc.overhead_us"] = call.us() - rtt.us()
		out["rpc.alloc_bytes_per_call"] = call.bytes
		out["rpc.allocs_per_call"] = call.allocs
		out["rpc.copy_factor"] = ratio(call.bytes, float64(frame))

		// Last, because the backlog stays queued in this rank's mailbox.
		recv, err := probe(backlog, func() error {
			if err := c.Send(1, tagGo, []byte{1}); err != nil {
				return err
			}
			_, _, err := c.Recv(1, tagBatchDone)
			return err
		}, func() error {
			_, _, err := c.Recv(1, tagMatch)
			return err
		})
		if err != nil {
			return err
		}
		out["mpi.recv_us_backlog256"] = recv.us()
		return c.Send(1, tagGo, nil)
	})
}

// probePeer is rank 1 of the transport probes: it echoes, serves, and
// queues the backlog, each until rank 0 sends an empty frame.
func probePeer(c *fanstore.Comm, payload []byte) error {
	for {
		data, _, err := c.Recv(0, tagPing)
		if err != nil {
			return err
		}
		if len(data) == 0 {
			break
		}
		if err := c.Send(0, tagPong, payload); err != nil {
			return err
		}
	}

	srv := rpc.NewServer(c, tagCall, func(int, []byte) ([]byte, error) {
		// The server recycles what a handler returns, so hand it a pooled
		// copy, as the store's fetch handler does.
		return append(decomp.GetBuf(len(payload)), payload...), nil
	}, rpc.ServerOptions{})
	go srv.Serve()
	err := c.Barrier()
	srv.Stop()
	if err != nil {
		return err
	}

	for i := 0; i < backlog; i++ {
		if err := c.Send(0, tagBacklog+i, []byte{0}); err != nil {
			return err
		}
	}
	for {
		data, _, err := c.Recv(0, tagGo)
		if err != nil {
			return err
		}
		if len(data) == 0 {
			return nil
		}
		for i := 0; i < backlog; i++ {
			if err := c.Send(0, tagMatch, []byte{0}); err != nil {
				return err
			}
		}
		if err := c.Send(0, tagBatchDone, nil); err != nil {
			return err
		}
	}
}

// storeProbes mounts the workload's bundle once more and times single
// opens on rank 0 with nothing else running: a cache hit, a first-touch
// local open, a first-touch remote open, and a metadata lookup. It
// returns how long rank 0's Mount took.
func storeProbes(sp spec, corp *corpus, bundle *fanstore.Bundle, out map[string]float64) (time.Duration, error) {
	l := &launch{sp: sp, corp: corp, bundle: bundle}
	err := sp.start(func(c *fanstore.Comm) error {
		node, err := l.mount(c)
		if err != nil {
			return err
		}
		defer node.Close()
		if c.Rank() != 0 {
			return c.Barrier()
		}
		local, remote := splitPaths(node, corp.paths)
		if len(local) == 0 || len(remote) < 2 {
			return errors.New("probe: rank 0 needs local and remote paths")
		}
		buf := make([]byte, sp.size)
		read := func(path string) error {
			_, err := openRead(node, path, &buf)
			return err
		}
		i := 0
		stat, err := probe(10000, nil, func() error {
			_, err := node.Stat(corp.paths[i%len(corp.paths)])
			i++
			return err
		})
		if err != nil {
			return err
		}
		out["fanstore.meta.stat_ns"] = stat.ns

		hot, cold := remote[0], remote[1:]
		if err := read(hot); err != nil {
			return err
		}
		hit, err := probe(2000, nil, func() error { return read(hot) })
		if err != nil {
			return err
		}
		out["fanstore.fs.open_hit_us"] = hit.us()
		out["fanstore.fs.open_hit_allocs"] = hit.allocs

		// First-touch opens: every operation takes a path not opened
		// before in this mount, so none can hit.
		firstTouch := func(paths []string) (probeStat, error) {
			ops := len(paths) / probeBatches
			if ops > 256 {
				ops = 256
			}
			i := 0
			return probe(ops, nil, func() error {
				err := read(paths[i])
				i++
				return err
			})
		}
		st, err := firstTouch(local)
		if err != nil {
			return err
		}
		out["fanstore.fs.open_local_us"] = st.us()
		if st, err = firstTouch(cold); err != nil {
			return err
		}
		out["fanstore.fs.open_remote_us"] = st.us()
		return c.Barrier()
	})
	return l.mountDur, err
}
