// Package fanstore implements the paper's primary contribution: a
// distributed, compressed, POSIX-style object store for deep-learning
// training data (§IV, §V).
//
// Each node (MPI rank) runs a Node: it loads its assigned compressed
// partitions into node-local storage, exchanges metadata with all peers
// via Allgather so the full namespace is resolvable from RAM, and serves
// its partitions' file bytes to peers over the interconnect. File opens
// decompress into a reference-counted FIFO cache; reads are memory copies
// out of that cache. The write path implements the paper's multi-read /
// single-write model: an output file is written once, sealed on close,
// and its metadata forwarded to the owner rank.
//
// The data path is layered:
//
//	routing   — route walks the owner and its replicas, rotated for
//	            load spreading; each fetch path applies its own failover
//	transport — internal/rpc: framed request/response over mpi.Comm,
//	            answered concurrently by a bounded daemon worker pool
//	decode    — on the opener, or on a prefetch batch's ≤ GOMAXPROCS
//	            stride goroutines; the node has no decode pool
//	cache     — the ref-counted decompressed pool (cache.go)
//	backend   — Backend (backend.go): the compressed objects, slices of
//	            heap or mapped partition blobs
//
// The paper's glibc function interception (LD_PRELOAD + trampoline, §V-C)
// is replaced by the equivalent user-space API surface on Node/File:
// Open/Read/Lseek/Write/Close/Stat/ReadDir — the same minimal POSIX
// interface of Listing 1, served entirely in user space.
package fanstore

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"fanstore/internal/codec"
	"fanstore/internal/decomp"
	"fanstore/internal/ec"
	"fanstore/internal/member"
	"fanstore/internal/metrics"
	"fanstore/internal/mpi"
	"fanstore/internal/obs"
	"fanstore/internal/pack"
	"fanstore/internal/rpc"
	"fanstore/internal/trace"
)

// Message tags used by the FanStore daemon protocol.
const (
	tagFetch = 1000 // fetch request: rpc frame carrying an op + body
	tagRing  = 1002 // ring replication of extra partitions
	tagCtrl  = 1003 // elastic control plane: join/rebalance/shutdown (elastic.go)
	// Each rpc.Client answers on its own window of 2^30 response tags.
	tagRespBase     = 1 << 20
	tagSealRespBase = tagRespBase + 1<<30
)

// Fetch request ops, the first byte of every tagFetch payload. All ops
// are answered by the same daemon worker pool — rebalance partition
// pulls deliberately share it with reads, so a handoff streams while
// the cluster keeps serving.
const (
	// opFetch requests compressed objects — the one object-fetch request,
	// whoever asks (demand open, plan prefetch) and however the cluster is
	// mounted. The body (encodeFetch / decodeFetch) is
	//
	//	[u64 mapVersion][u32 count]{[u32 len][path]}×count
	//
	//	mapVersion  the cluster-map version the caller routed on (1 for
	//	            the life of a static mount); 0 names no version and
	//	            asks for no stale diagnosis
	//	count       1 for a demand open, the chunk size for a prefetch
	//
	// and the answer is an rpc item frame in request order, each OK
	// payload [u16 compressorID][the whole compressed object]. A key the
	// server does not hold is ItemNotFound, or ItemStale when mapVersion
	// is non-zero and disagrees with the server's — "I don't have it, and
	// one of us is routing on an old map" — so the caller refreshes
	// instead of burning failovers. A request with nothing to serve is
	// answered by the rpc status of its first item, no frame.
	opFetch = byte(0)
	// opFetchPart requests a whole partition blob by its global id
	// ([u64 gid]) — the rebalance transfer: the new owner pulls the blob
	// from the old owner over the ordinary fetch pool while the old
	// owner keeps serving its objects until the handoff commits.
	opFetchPart = byte(1)
	// opMetaSync is the stale-map refresh, asked of a path's metadata
	// home or the coordinator: one path in, the cluster map and the
	// path's current metadata record out, in the commit layout
	// (encodeCommit under op opMetaSync, no node, no transfers, zero or
	// one record).
	opMetaSync = byte(2)
	// opFetchShard requests every erasure shard of one partition held by
	// the answering node ([u64 gid]); the response is a concatenation of
	// pack shard frames. Degraded reads and shard repair gather through
	// it (ec redundancy mode only).
	opFetchShard = byte(3)
	// opStoreShard delivers one or more shard frames for the answering
	// node to hold — the shard-placement half of ec redundancy. Re-pushes
	// of the same (gid, index) overwrite.
	opStoreShard = byte(4)
	// opWriteMeta delivers a sealed output file's record to its metadata
	// home (encodeMetas of one Written record); the answer is empty, so a
	// writer's WriteFile returns once the home holds the record. Op byte 5
	// is unassigned: it was a byte-range fetch.
	opWriteMeta = byte(6)
)

// batchGetConcurrency bounds concurrent backend reads inside one
// opFetch handler, so a batch over a backend whose Peek declines (one
// that reads on Get) overlaps its reads instead of serializing them,
// without letting one huge batch monopolize the backend.
const batchGetConcurrency = 8

// Errors returned by the FS surface.
var (
	ErrNotExist   = errors.New("fanstore: file does not exist")
	ErrIsDir      = errors.New("fanstore: is a directory")
	ErrNotDir     = errors.New("fanstore: not a directory")
	ErrExist      = errors.New("fanstore: file already exists")
	ErrClosed     = errors.New("fanstore: file already closed")
	ErrReadOnly   = errors.New("fanstore: file not open for writing")
	ErrWriteOnly  = errors.New("fanstore: file not open for reading")
	ErrUnmounted  = errors.New("fanstore: node unmounted")
	ErrRemoteGone = errors.New("fanstore: remote fetch failed")
	// ErrVanished reports a fetch whose every candidate authoritatively
	// answered not-found on a current map: the object is genuinely gone
	// (deleted, or its record outlived its data), as opposed to
	// ErrRemoteGone's unreachable-or-stale routes. It matches ErrNotExist
	// and ErrRemoteGone under errors.Is for backward compatibility.
	ErrVanished = errors.New("fanstore: object vanished")
	// ErrLost reports a read whose owner this node's map marks dead, with
	// no copy left: under none, or under ec(k,m) with < k shards.
	ErrLost = errors.New("fanstore: data lost with its dead owner")
)

// vanishedError carries the vanished diagnosis while staying matchable
// as the not-found and remote-failure families callers already handle.
type vanishedError struct {
	path string
	err  error
}

func (e *vanishedError) Error() string {
	return fmt.Sprintf("fanstore: %q vanished: every candidate reports not-found on a current map (%v)", e.path, e.err)
}

func (e *vanishedError) Is(target error) bool {
	return target == ErrVanished || target == ErrNotExist || target == ErrRemoteGone
}

func (e *vanishedError) Unwrap() error { return e.err }

// Options configures a Node.
//
// Knob lifetimes: every field is mount-only, fixed for the node's
// lifetime. What moves after Mount is set on the Node: the admission
// budget (Node.SetAdmissionBytes, read by the plan scheduler on every
// admission decision). The node sizes its pools itself: the cache's
// shards from GOMAXPROCS and CacheBytes, and the rpc server's handlers
// (rpc.NewReplyServer). It runs no decode workers: an open decodes on its
// own goroutine, and a prefetch batch on at most GOMAXPROCS goroutines
// of its own.
type Options struct {
	// CacheBytes bounds the decompressed data cache (default 256 MiB).
	// Mount-only: resizing the sharded cache live would rehash every
	// resident entry.
	CacheBytes int64
	// CachePolicy selects the replacement order among entries no
	// installed epoch plan will read (default FIFO); see Policy.
	CachePolicy Policy
	// Replicas are extra partition blobs this node serves locally
	// without owning them (typically obtained via RingReplicate when the
	// node has spare local storage, §V-D). Their paths are announced to
	// all peers during Mount, so remote opens route to this node as an
	// alternative to the owner: read locality, not fault tolerance.
	// Static mounts only: MountElastic and JoinCluster refuse them.
	Replicas [][]byte
	// Backend stores the compressed objects (nil: NewRAMBackend, which
	// aliases the partition blobs; a blob mapped from local disk with
	// pack.Map keeps them out of the heap, the paper's SSD back end). The
	// mount owns it: the node closes it on every exit, a failed mount
	// included.
	Backend Backend
	// FetchTimeout bounds each remote fetch attempt (0: no deadline).
	FetchTimeout time.Duration
	// FetchRetries is how many extra attempts follow a timed-out or
	// errored fetch to the same peer, before routing fails over to the
	// next replica (default 0).
	FetchRetries int
	// Redundancy is none (the zero value: a dead node's data is lost) or
	// ec(k,m), which stripes every partition into k data + m parity shards
	// on nodes other than its owner (see ParseRedundancy for the flag
	// syntax). It needs an elastic mount — the shard placement and the
	// repair job route through the membership coordinator.
	Redundancy Redundancy
	// Metrics re-homes every data-path instrument (cache, rpc, store) in
	// a shared registry, so one snapshot captures the whole rank and the
	// cluster report can merge rank snapshots name-by-name. Nil means a
	// private registry, reached through Node.Registry.
	Metrics *metrics.Registry
	// Tracer records per-operation spans (open, fetch, decompress, evict,
	// prefetch) into a fixed-size ring for Chrome trace export. Nil
	// disables tracing at zero cost on the hot path.
	Tracer *trace.Tracer
	// Events receives structured fault-path events (failover, map
	// change, rebalance lifecycle, degraded reads, EC repair, eviction
	// pressure) for the ops server's /events endpoint. Nil disables
	// emission at zero cost on the data path.
	Events *obs.EventLog
}

// RingReplicate passes each rank's partition blobs to its ring neighbor
// and returns the blobs received from the predecessor. The paper uses
// this to place additional partition copies without re-reading the shared
// filesystem: with roughly equal partition sizes the transfers are
// contention-free (§V-D). Send and receive are interleaved per partition
// — at most one blob is in flight each way — so memory stays bounded and
// a rendezvous-style transport cannot deadlock on large partition sets.
// Collective: every rank must call it.
func RingReplicate(comm *mpi.Comm, partitions [][]byte) ([][]byte, error) {
	next := comm.Neighbor()
	prev := (comm.Rank() + comm.Size() - 1) % comm.Size()

	// Header exchange: post the count send asynchronously so a
	// rendezvous transport can match it with the recv below.
	var cnt [4]byte
	binary.LittleEndian.PutUint32(cnt[:], uint32(len(partitions)))
	hdrErr := make(chan error, 1)
	go func() { hdrErr <- comm.Send(next, tagRing, cnt[:]) }()
	hdr, _, err := comm.Recv(prev, tagRing)
	if serr := <-hdrErr; serr != nil {
		return nil, fmt.Errorf("fanstore: ring replicate: %w", serr)
	}
	if err != nil {
		return nil, fmt.Errorf("fanstore: ring replicate: %w", err)
	}
	if len(hdr) != 4 {
		return nil, fmt.Errorf("fanstore: ring replicate: bad count frame")
	}
	nRecv := int(binary.LittleEndian.Uint32(hdr))

	rounds := len(partitions)
	if nRecv > rounds {
		rounds = nRecv
	}
	out := make([][]byte, 0, nRecv)
	for i := 0; i < rounds; i++ {
		var sendErr chan error
		if i < len(partitions) {
			sendErr = make(chan error, 1)
			blob := partitions[i]
			go func() { sendErr <- comm.Send(next, tagRing, blob) }()
		}
		if i < nRecv {
			blob, _, err := comm.Recv(prev, tagRing)
			if err != nil {
				if sendErr != nil {
					<-sendErr
				}
				return nil, fmt.Errorf("fanstore: ring replicate: %w", err)
			}
			out = append(out, blob)
		}
		if sendErr != nil {
			if err := <-sendErr; err != nil {
				return nil, fmt.Errorf("fanstore: ring replicate: %w", err)
			}
		}
	}
	return out, nil
}

// Node is one rank's FanStore instance: metadata table, storage backend,
// decompressed cache, and the daemon servicing peers.
type Node struct {
	comm    *mpi.Comm
	cache   *Cache
	backend Backend

	// Cluster identity. In a static Mount the view is the identity
	// StaticMap (node ID i == rank i, version 1) and every membership
	// code path degenerates to the fixed-world behaviour; an elastic
	// mount (elastic.go) wires a live view fed by the coordinator.
	view   *member.View
	selfID member.NodeID
	ectrl  *elasticCtrl // elastic control plane; nil on static mounts
	ec     *ecState     // erasure redundancy; nil under none and on static mounts

	mu sync.RWMutex
	// names maps a clean path to its object ID, the index of its object
	// in objs (objects.go); the first dataset IDs are the dataset's, in
	// path order, the same on every rank.
	names map[string]uint32
	objs  []object
	dirs  *dirIndex
	// writes holds sealed output files (uncompressed, write-once).
	writes map[string][]byte
	// parts tracks the loaded partition blobs by global id for rebalance
	// transfers (opFetchPart). Only elastic mounts populate it — static
	// mounts never hand partitions off, and their blobs stay the
	// caller's, referenced by the backend's entries only.
	parts map[uint64]*nodePart

	// admission is the live staged-bytes budget the plan scheduler reads
	// through AdmissionBytes each admission decision (0: cache headroom).
	admission atomic.Int64

	server *rpc.Server // answers peers' fetch requests (tagFetch)
	client *rpc.Client // issues fetch requests to peers
	// sealer forwards sealed files' records (opWriteMeta). It has no
	// instruments: rpc.client.* count what reads cost, so a read-only
	// window shows no calls whatever the job writes.
	sealer *rpc.Client

	routeSeq atomic.Int64 // rotates fetch routing across owner+replicas
	closed   atomic.Bool

	// The registry every data-path instrument lives in ("fanstore.*",
	// "rpc.*"): the one read-out of the node's numbers.
	reg    *metrics.Registry
	tracer *trace.Tracer
	events *obs.EventLog // nil unless the ops plane is enabled

	localOpens, remoteOpens, zeroCopyOpens *metrics.Counter
	decompresses, failovers                *metrics.Counter
	bytesRead, remoteBytes                 *metrics.Counter
	batchedFetches                         *metrics.Counter
	fetchCoalesced, prefetchSuppressed     *metrics.Counter
	mapRefreshes                           *metrics.Counter
	mapVersion                             *metrics.Gauge

	openHist       *metrics.Histogram // whole open(): lookup + fetch + decompress
	fetchHist      *metrics.Histogram // remote fetch round trips only
	decompressHist *metrics.Histogram // codec time per decompressed object
}

// instrument registers the node's counters and histograms in its
// registry. Mount calls it before any traffic.
func (n *Node) instrument() {
	n.localOpens = n.reg.Counter("fanstore.opens.local")
	n.remoteOpens = n.reg.Counter("fanstore.opens.remote")
	n.zeroCopyOpens = n.reg.Counter("fanstore.opens.zerocopy")
	n.decompresses = n.reg.Counter("fanstore.decompresses")
	n.failovers = n.reg.Counter("fanstore.failovers")
	n.bytesRead = n.reg.Counter("fanstore.bytes.read")
	n.remoteBytes = n.reg.Counter("fanstore.bytes.remote")
	n.batchedFetches = n.reg.Counter("fanstore.fetch.batched")
	n.fetchCoalesced = n.reg.Counter("fanstore.fetch.coalesced")
	n.prefetchSuppressed = n.reg.Counter("fanstore.prefetch.suppressed")
	n.mapRefreshes = n.reg.Counter("fanstore.map.refreshes")
	n.mapVersion = n.reg.Gauge("member.map.version")
	n.openHist = n.reg.Histogram("fanstore.open.latency")
	n.fetchHist = n.reg.Histogram("fanstore.fetch.latency")
	n.decompressHist = n.reg.Histogram("fanstore.decompress.latency")
}

// loadPartition parses one partition blob into the backend and returns
// this rank's metadata records for its entries, stamped with this node's
// ID and the current map version. A blob with an entry of negative size
// is refused whole, before the backend sees any of it.
func (n *Node) loadPartition(blob []byte) ([]FileMeta, error) {
	p, err := pack.Parse(blob)
	if err != nil {
		return nil, err
	}
	metas := make([]FileMeta, 0, len(p.Entries))
	for i := range p.Entries {
		e := &p.Entries[i]
		if e.Stat.Size < 0 {
			return nil, fmt.Errorf("fanstore: %s: negative size %d", e.Path, e.Stat.Size)
		}
		metas = append(metas, FileMeta{
			Path:         cleanPath(e.Path),
			Size:         e.Stat.Size,
			Mode:         e.Stat.Mode,
			MTime:        e.Stat.MTime,
			CRC32:        e.Stat.CRC32,
			CompressorID: e.CompressorID,
			Owner:        int32(n.selfID),
			MapVersion:   n.view.Version(),
		})
	}
	if err := n.backend.AddPartition(blob, p); err != nil {
		return nil, err
	}
	return metas, nil
}

// nodePart is one loaded partition blob an elastic node can hand off to
// a new owner during a rebalance.
type nodePart struct {
	gid   uint64 // cluster-wide partition id assigned by the coordinator
	blob  []byte
	paths []string // clean paths of the partition's entries
}

// loadPartitionGID loads a partition and registers it under its global
// id for rebalance transfers. Elastic mounts only.
func (n *Node) loadPartitionGID(gid uint64, blob []byte) ([]FileMeta, error) {
	metas, err := n.loadPartition(blob)
	if err != nil {
		return nil, err
	}
	paths := make([]string, len(metas))
	for i := range metas {
		metas[i].PartGID = gid
		paths[i] = metas[i].Path
	}
	n.mu.Lock()
	n.parts[gid] = &nodePart{gid: gid, blob: blob, paths: paths}
	n.mu.Unlock()
	n.setLocal(paths, true)
	return metas, nil
}

// dropPartition forgets a handed-off partition: the old owner's half of
// a rebalance commit. The decompressed cache is untouched — entries for
// the moved paths still hold correct bytes; only the compressed source
// moves.
func (n *Node) dropPartition(gid uint64) {
	n.mu.Lock()
	p := n.parts[gid]
	delete(n.parts, gid)
	n.mu.Unlock()
	if p != nil {
		n.setLocal(p.paths, false)
		n.backend.Remove(p.paths)
	}
}

// noteReplica records that rank also serves path's compressed object.
func (n *Node) noteReplica(path string, rank int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	id, ok := n.names[cleanPath(path)]
	if !ok || n.objs[id].meta.Owner == int32(rank) {
		return // replica of an unannounced partition, or the owner itself
	}
	m := n.objs[id].meta
	for _, r := range m.Replicas {
		if r == int32(rank) {
			return
		}
	}
	m.Replicas = append(m.Replicas, int32(rank))
}

// handleFetch answers one peer request on a daemon worker, dispatching
// on the op byte.
func (n *Node) handleFetch(_ int, payload []byte, r *rpc.Reply) error {
	if len(payload) == 0 {
		return fmt.Errorf("fanstore: empty fetch frame")
	}
	var resp []byte
	var err error
	switch body := payload[1:]; payload[0] {
	case opFetch:
		return n.handleFetchObjects(body, r)
	case opFetchPart:
		return n.handleFetchPart(body, r)
	case opFetchShard:
		return n.handleFetchShard(body, r)
	case opMetaSync:
		resp, err = n.handleMetaSync(body)
	case opStoreShard:
		resp, err = n.handleStoreShard(body)
	case opWriteMeta:
		resp, err = n.handleWriteMeta(body)
	default:
		return fmt.Errorf("fanstore: unknown fetch op %d", payload[0])
	}
	r.Lend(resp) // fresh memory no one else holds
	return err
}

// encodeFetch builds an opFetch request (layout at opFetch) for keys.
func encodeFetch(mapVersion uint64, keys []string) []byte {
	req := make([]byte, 9, 9+rpc.KeysSize(keys))
	req[0] = opFetch
	binary.LittleEndian.PutUint64(req[1:], mapVersion)
	return rpc.AppendKeys(req, keys)
}

// decodeFetch parses an opFetch request body (the frame after the op
// byte) as received from a peer.
func decodeFetch(body []byte) (mapVersion uint64, keys []string, err error) {
	if len(body) < 8 {
		return 0, nil, fmt.Errorf("fanstore: fetch request truncated (%d bytes)", len(body))
	}
	keys, err = rpc.DecodeKeys(body[8:])
	return binary.LittleEndian.Uint64(body), keys, err
}

// fetchedObject is one looked-up item of an opFetch answer, before it is
// framed. data aliases backend storage (or the writes table).
type fetchedObject struct {
	status  byte // rpc.ItemOK unless err is set
	id      uint16
	data    []byte // the whole compressed object (or a written file's bytes)
	written bool   // data is a written file's bytes, uncompressed: framed as "store"
	err     error
}

// peekObject finds one object for an opFetch item without I/O: the
// compressed object the backend lends, or a written file's bytes
// (asked second: written files are few, and never in the backend). ok is
// false when only Get can answer (a backend that reads on Get, or a miss).
func (n *Node) peekObject(path string) (o fetchedObject, ok bool) {
	if o.id, o.data, ok = n.backend.Peek(path); ok {
		return o, true
	}
	n.mu.RLock()
	wdata, written := n.writes[path]
	n.mu.RUnlock()
	if written && wdata != nil {
		return fetchedObject{data: wdata, written: true}, true
	}
	return o, false
}

// getObjects reads the items at idx from the backend with Get, with up
// to batchGetConcurrency readers that take every readers-th index each;
// the handler's own goroutine is the first of them.
func (n *Node) getObjects(keys []string, objs []fetchedObject, idx []int) {
	readers := min(len(idx), batchGetConcurrency)
	get := func(first int) {
		for j := first; j < len(idx); j += readers {
			o := &objs[idx[j]]
			o.id, o.data, o.err = n.backend.Get(keys[idx[j]])
		}
	}
	var wg sync.WaitGroup
	for r := 1; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			get(r)
		}()
	}
	get(0)
	wg.Wait()
}

// handleFetchObjects answers opFetch. Objects Peek can return are framed
// on the handler; the rest are read from the backend with
// bounded concurrency (a batch over a backend that reads on Get overlaps
// those reads). Items are answered in request order with per-item status,
// so a partial miss never fails the whole batch. The reply lends each
// object's bytes where the backend keeps them, between parts cut from one
// pooled buffer that holds everything else. The answer stops before the
// object that would take its frame — item headers and count included —
// past rpc.DefaultBatchBytes (it always carries one); the caller asks
// again for the keys past it.
func (n *Node) handleFetchObjects(body []byte, r *rpc.Reply) error {
	callerVer, keys, err := decodeFetch(body)
	if err != nil {
		return err
	}
	objs := make([]fetchedObject, len(keys))
	var cold []int
	for i, key := range keys {
		var ok bool
		if objs[i], ok = n.peekObject(key); !ok {
			cold = append(cold, i)
		}
	}
	n.getObjects(keys, objs, cold)

	// A miss under version disagreement means the caller routed here on a
	// map that predates (or postdates) a rebalance. The version check only
	// triggers on a miss: while both sides agree on the map, or the object
	// is simply present, the version changes nothing.
	have := n.view.Version()
	size, lent, served := 0, 0, false
	for i := 0; i < len(objs); i++ {
		o := &objs[i]
		payload := 2 + len(o.data)
		if o.written { // framed as "store": a uvarint length, then the bytes
			var uv [binary.MaxVarintLen64]byte
			payload += binary.PutUvarint(uv[:], uint64(len(o.data)))
		}
		switch {
		case o.err == nil && served && rpc.ItemsSize(i+1, size+payload)+1 > rpc.DefaultBatchBytes:
			// +1 is the status trailer the transport carries with the
			// answer: the frame the caller receives stays in the pool's
			// DefaultBatchBytes class.
			objs = objs[:i] // ends the loop; the caller asks again for the rest
		case o.err == nil:
			served = true
			size += payload
			if !o.written {
				lent += len(o.data)
			}
		case !errors.Is(o.err, ErrNotExist):
			o.status = rpc.ItemError
			size += len(o.err.Error())
		case callerVer != 0 && callerVer != have:
			o.status = rpc.ItemStale
			o.err = fmt.Errorf("%w: have v%d, caller routed on v%d", rpc.ErrStale, have, callerVer)
		default:
			o.status = rpc.ItemNotFound
			o.err = rpc.ErrNotFound
		}
	}
	if !served && len(objs) > 0 {
		return objs[0].err
	}
	// The buffer is sized here and never grows, so the parts cut from it
	// stay valid while it fills; hdr[cut:] is not a part yet.
	hdr := decomp.GetBuf(rpc.ItemsSize(len(objs), size) - lent)
	r.Own(hdr)
	hdr, cut := rpc.BeginItems(hdr, len(objs)), 0
	for i := range objs {
		o := &objs[i]
		hdr = rpc.BeginItem(hdr, o.status)
		start := len(hdr)
		switch {
		case o.status == rpc.ItemError:
			hdr = append(hdr, o.err.Error()...)
		case o.err != nil: // a miss carries no payload
		case o.written:
			// Output files are stored uncompressed; frame them as "store",
			// compressing straight into the buffer.
			hdr = binary.LittleEndian.AppendUint16(hdr, codec.StoreID)
			if hdr, err = codec.MustGet("store").Codec.Compress(hdr, o.data); err != nil {
				return err
			}
		default:
			hdr = binary.LittleEndian.AppendUint16(hdr, o.id)
			// EndItem's length field, counting the lent bytes after it.
			binary.LittleEndian.PutUint32(hdr[start-4:], uint32(2+len(o.data)))
			r.Lend(hdr[cut:])
			r.Lend(o.data)
			cut = len(hdr)
			continue
		}
		rpc.EndItem(hdr, start)
	}
	r.Lend(hdr[cut:])
	return nil
}

// handleFetchPart lends one loaded partition blob to a new owner — the
// rebalance transfer. It runs on the ordinary fetch worker pool, so
// handoffs share bandwidth with reads instead of stopping them.
func (n *Node) handleFetchPart(body []byte, r *rpc.Reply) error {
	if len(body) != 8 {
		return fmt.Errorf("fanstore: bad partition fetch frame")
	}
	gid := binary.LittleEndian.Uint64(body)
	n.mu.RLock()
	p := n.parts[gid]
	n.mu.RUnlock()
	if p == nil {
		return fmt.Errorf("%w: partition %d", rpc.ErrNotFound, gid)
	}
	r.Lend(p.blob)
	return nil
}

// handleMetaSync answers a stale-map refresh from this node's map and
// table (callers direct it at the coordinator, whose table is
// authoritative after a commit) in the commit layout, with no node and
// no transfers. An answer racing a commit may pair the new map with the
// old record: the caller's fetch then misses at the old owner and
// refreshes once more, which fetchRemote bounds. Unknown paths return an
// empty list, not an error: the caller's next fetch will surface the
// real miss.
func (n *Node) handleMetaSync(body []byte) ([]byte, error) {
	var recs []FileMeta
	if _, o, ok := n.resolve(cleanPath(string(body))); ok {
		recs = []FileMeta{*o.meta}
	}
	return encodeCommit(opMetaSync, member.NoNode, n.view.Map(), nil, recs), nil
}

// handleWriteMeta installs a peer's sealed-file record (opWriteMeta). The
// record is a peer's claim: only one Written record is taken, and never
// over a partition's record, which the write path cannot replace.
func (n *Node) handleWriteMeta(body []byte) ([]byte, error) {
	metas, err := decodeMetas(body)
	if err != nil {
		return nil, err
	}
	if len(metas) != 1 || !metas[0].Written {
		return nil, errors.New("fanstore: write metadata: not one written record")
	}
	m := metas[0]
	m.Path = cleanPath(m.Path)
	n.mu.Lock()
	defer n.mu.Unlock()
	if id, ok := n.names[m.Path]; m.Path == "" || ok && !n.objs[id].meta.Written {
		return nil, fmt.Errorf("fanstore: write metadata: %q is not a writable path", m.Path)
	}
	n.installLocked(m)
	return nil, nil
}

// route is one fetch's walk over the nodes that can serve a record's
// object: its owner and replicas other than this node, as node IDs in
// try order, rotated once (the node's one routeSeq read) so load spreads
// across them. IDs, not ranks: each is resolved through the cluster-map
// view when it is tried, so a walk survives rank reassignment between
// the record read and the fetch. The walk is shared; what to do about a
// failed candidate is each caller's policy, on the verdict of classify.
type route struct {
	ids   []member.NodeID
	tried int
}

// route starts the walk for m.
func (n *Node) route(m *FileMeta) route {
	ids := make([]member.NodeID, 0, 1+len(m.Replicas))
	self := int32(n.selfID)
	if m.Owner != self {
		ids = append(ids, member.NodeID(m.Owner))
	}
	for _, r := range m.Replicas {
		if r != self && r != m.Owner {
			ids = append(ids, member.NodeID(r))
		}
	}
	if len(ids) > 0 {
		k := int(n.routeSeq.Add(1)) % len(ids) // rotate left by k, in place
		slices.Reverse(ids[:k])
		slices.Reverse(ids[k:])
		slices.Reverse(ids)
	}
	return route{ids: ids}
}

// more reports whether a candidate is left untried.
func (r *route) more() bool { return r.tried < len(r.ids) }

// next takes the next candidate and resolves it through view: its ID,
// and its rank or the view's stale-map error when the map does not know
// it alive.
func (r *route) next(view *member.View) (member.NodeID, int, error) {
	id := r.ids[r.tried]
	r.tried++
	dst, err := view.Resolve(id)
	return id, dst, err
}

// verdict is what a failed candidate says about the rest of a walk.
type verdict uint8

const (
	failover  verdict = iota // the peer errored; the next candidate may serve
	staleMap                 // the route predates the map: a refresh, not a failover, fixes it
	notFound                 // the peer answered it holds no such object
	worldDown                // the world aborted: no candidate can answer
)

// classify gives a failed candidate — unresolvable, or its call errored —
// its verdict.
func classify(err error) verdict {
	switch {
	case errors.Is(err, mpi.ErrAborted):
		return worldDown
	case errors.Is(err, rpc.ErrStale), errors.Is(err, member.ErrStaleMap):
		return staleMap
	case errors.Is(err, rpc.ErrNotFound):
		return notFound
	}
	return failover
}

// refreshRoutes is the stale-map recovery path: one metaSync with the
// coordinator, whose map and table are authoritative after a commit; it
// returns the refreshed record for re-resolution. Static mounts have
// nothing to refresh and return nil; the coordinator's own record is the
// answer.
func (n *Node) refreshRoutes(path string) *FileMeta {
	if n.ectrl == nil {
		return nil
	}
	n.mapRefreshes.Inc()
	if n.ectrl.coord == nil && n.metaSync(n.ectrl.coordRank, path) != nil {
		return nil
	}
	_, o, _ := n.resolve(path)
	return o.meta
}

// metaSync asks rank for the cluster map and its record of path
// (opMetaSync) and installs both: the map if it is newer, the record if
// the rank has one.
func (n *Node) metaSync(rank int, path string) error {
	req := make([]byte, 1, 1+len(path))
	req[0] = opMetaSync
	resp, err := n.client.Call(rank, append(req, path...))
	if err != nil {
		return err
	}
	if len(resp) == 0 || resp[0] != opMetaSync {
		return errors.New("fanstore: not a meta sync reply")
	}
	_, cm, _, metas, err := decodeCommit(resp[1:])
	if err != nil {
		return err
	}
	n.installMap(cm)
	if len(metas) == 1 {
		n.addMeta(metas[0])
	}
	return nil
}

// installMap publishes a newer cluster map to this node's view,
// reporting whether it was newer.
func (n *Node) installMap(cm *member.ClusterMap) bool {
	installed := n.view.Update(cm)
	n.mapVersion.Set(int64(n.view.Version()))
	return installed
}

// fetchRemote retrieves the compressed object for m over the interconnect
// (§IV-C2) and returns (compressorID, compressed, frame, outcome): the
// compressed bytes alias frame, the pooled rpc frame they arrived in,
// which the caller recycles (decomp.PutBuf) once they are decoded. Routing is
// replica-aware: requests rotate across the owner and its replicas to
// spread load, and an errored peer triggers failover to the next
// candidate, so a lost rank degrades throughput instead of killing opens.
// The outcome distinguishes a first-candidate success (remote-fetch) from
// one that needed failover, so the open span carries routing health.
//
// On an elastic mount candidates resolve through the cluster-map view,
// and a version-mismatch answer (rpc.ErrStale, or an unresolvable node
// ID) triggers a map-and-metadata refresh followed by re-resolution
// against the refreshed record — not a failover: the object exists, the
// route was just planned on an old map. A candidate the map marks dead
// ends the walk unrefreshed, in the ec degraded path or ErrLost.
func (n *Node) fetchRemote(m *FileMeta) (uint16, []byte, []byte, trace.Outcome, error) {
	start := time.Now()
	tstart := n.tracer.Begin()
	outcome := trace.OutcomeRemoteFetch
	path := m.Path
	defer func() {
		n.fetchHist.Observe(time.Since(start))
		n.tracer.End(trace.OpFetch, path, outcome, tstart)
	}()
	// Two refreshes bound the recovery loop: one covers the common
	// "commit landed between my meta read and my fetch" race, the second
	// a commit racing the refresh itself. The cap is what keeps a
	// genuinely deleted object — whose every fetch answers not-found and
	// whose every refresh returns the same doomed record — from spinning
	// the refresh loop forever; after it trips, the all-misses pass is
	// diagnosed as ErrVanished below rather than retried.
	const maxRefreshes = 2
	refreshes := 0
	var lastErr error
	aborted, lost := false, false
	allNotFound := false
	for {
		r := n.route(m)
		if !r.more() {
			lastErr = fmt.Errorf("no remote node serves %q", path)
			break
		}
		// A commit landing mid-walk (a drained leaver's) makes it stale.
		stale, version := false, n.view.Version()
		attempts, misses := 0, 0
		for r.more() && !aborted && !lost {
			id, dst, err := r.next(n.view)
			if err != nil {
				node, _ := n.view.Map().Lookup(id)
				lost = node.State == member.StateDead
			} else {
				attempts++
				var resp []byte
				if resp, err = n.client.Call(dst, encodeFetch(n.view.Version(), []string{path})); err == nil {
					items, derr := rpc.DecodeItems(resp)
					if derr == nil && len(items) == 1 && items[0].Status == rpc.ItemOK && len(items[0].Payload) >= 2 {
						obj := items[0].Payload
						n.remoteBytes.Add(int64(len(obj)))
						return binary.LittleEndian.Uint16(obj), obj[2:], resp, outcome, nil
					}
					err = fmt.Errorf("rank %d sent a malformed object frame", dst)
				}
			}
			lastErr = err
			switch classify(err) {
			case worldDown:
				aborted = true
			case staleMap:
				// The record and the map disagree: an unresolvable ID, or
				// a version-mismatch answer. A refresh fixes it.
				stale = true
			case notFound:
				misses++
				// Even a version-matched miss can be a commit race: map
				// and meta land in separate steps, so this node may have
				// routed to the old owner under the new version after
				// the owner already dropped the partition. Suspect a
				// stale route first; only when the refresh finds nothing
				// newer (a static mount never does) or the cap trips with
				// every candidate still answering not-found is the object
				// declared vanished.
				stale = true
			case failover:
				if r.more() {
					n.failovers.Inc()
					outcome = trace.OutcomeFailover
					if n.events.Enabled() {
						n.events.Emitf(obs.EvFailover, obs.SevWarn,
							"fetch %q: node %d errored (%v), failing over", path, id, err)
					}
				}
			}
		}
		allNotFound = attempts > 0 && misses == attempts
		if aborted || lost {
			break
		}
		stale = stale || n.view.Version() != version
		if stale && refreshes < maxRefreshes {
			refreshes++
			if fresh := n.refreshRoutes(path); fresh != nil {
				m = fresh
				continue
			}
		}
		break
	}
	// Every whole-object route is exhausted. On an erasure-coded mount
	// the partition is still recoverable while at least k shards survive:
	// reconstruct it and serve the read degraded. This is the path that
	// keeps reads flowing between a rank dying and the repair commit.
	var degErr error
	if n.ec != nil && m.PartGID != 0 && !aborted {
		if id, comp, err := n.ecDegradedObject(m); err == nil {
			n.remoteBytes.Add(int64(len(comp)))
			outcome = trace.OutcomeDegraded
			return id, comp, nil, outcome, nil
		} else if degErr = err; lastErr == nil {
			lastErr = err
		}
	}
	outcome = trace.OutcomeError
	if lost && (degErr == nil || errors.Is(degErr, ec.ErrShortSet)) {
		return 0, nil, nil, outcome, fmt.Errorf("%w: %q: owner node %d is dead on map v%d (%w)",
			ErrLost, path, m.Owner, n.view.Version(), cmp.Or(degErr, errors.New("redundancy none")))
	}
	if allNotFound {
		// Every miss above asked for a refresh, so the routes are as
		// current as they get and every candidate authoritatively answered
		// not-found: the object is gone, not mis-routed — callers can
		// distinguish this from transport death.
		if n.events.Enabled() {
			n.events.Emitf(obs.EvFailover, obs.SevError, "object %q vanished: every candidate reports not-found", path)
		}
		return 0, nil, nil, outcome, &vanishedError{path: path, err: lastErr}
	}
	return 0, nil, nil, outcome, fmt.Errorf("%w: %v", ErrRemoteGone, lastErr)
}

// prefetchTarget is one not-yet-staged remote object being walked
// along its route by Prefetch. The target's flight (the prefetch is its
// leader) is finished nil once the object is staged, or with
// errFlightAbandoned when every candidate failed — so a demand open
// racing the window either shares the staged entry or falls back to its
// own fetch, never an error from a best-effort path.
type prefetchTarget struct {
	id     uint32
	m      *FileMeta
	flight *flight
	route  route
}

// Prefetch stages an upcoming access window (the sampler's next
// iterations) into the decompressed cache ahead of the consumer: paths
// that are neither local, cached, nor already being opened are grouped
// by replica owner, each group is fetched with one batched round trip
// — issued concurrently across owners — and the decompressed results
// are inserted unpinned (InsertIdle), so prefetched-but-unopened files
// stay evictable and a canceled epoch cannot wedge the pool. It is
// best-effort: a partial miss or peer failure falls over to the next
// replica and finally to on-demand fetching at Open; Prefetch never
// fails the training loop. Each path is resolved once, to its object
// ID, and the rest of the walk is by ID (the wire still names paths).
// Returns the number of objects staged.
func (n *Node) Prefetch(paths []string) int {
	if n.closed.Load() || len(paths) == 0 {
		return 0
	}
	tstart := n.tracer.Begin()
	defer n.tracer.End(trace.OpPrefetch, "", trace.OutcomeNone, tstart)
	// Resolve the window down to remote, uncached, not-in-flight objects.
	all := make([]prefetchTarget, 0, len(paths))
	for _, p := range paths {
		id, o, ok := n.resolve(cleanPath(p))
		if !ok || o.local {
			continue
		}
		if n.cache.Contains(id) {
			n.prefetchSuppressed.Inc() // already staged or resident
			continue
		}
		r := n.route(o.meta)
		if !r.more() {
			continue
		}
		f, leader := n.cache.beginFlight(id)
		if !leader {
			// A demand open or an overlapping prefetch is already
			// producing it; that flight's result lands in the cache. A
			// path this window named twice leads one flight, here.
			if !slices.ContainsFunc(all, func(t prefetchTarget) bool { return t.flight == f }) {
				n.prefetchSuppressed.Inc()
			}
			continue
		}
		all = append(all, prefetchTarget{id: id, m: o.meta, flight: f, route: r})
	}
	targets := make([]*prefetchTarget, len(all))
	for i := range all {
		targets[i] = &all[i]
	}
	// Round-based failover: each round groups the remaining targets by the
	// rank of their next candidate and fetches the groups concurrently;
	// targets a peer could not serve move on to their next candidate in
	// the round after. A candidate the view cannot resolve (it left, or
	// the map is behind) is skipped — prefetch is best-effort; the demand
	// path owns stale-map recovery.
	staged := 0
	for len(targets) > 0 {
		groups := make(map[int][]*prefetchTarget)
	walk:
		for _, t := range targets {
			for t.route.more() {
				if _, dst, err := t.route.next(n.view); err == nil {
					groups[dst] = append(groups[dst], t)
					continue walk
				}
			}
			// Every candidate failed: abandon the flight so waiting opens
			// retry on demand rather than inheriting a best-effort failure.
			n.cache.finishFlight(t.id, t.flight, errFlightAbandoned)
		}
		targets = targets[:0]
		var mu sync.Mutex
		var wg sync.WaitGroup
		wg.Add(len(groups))
		fetch := func(dst int, group []*prefetchTarget) {
			defer wg.Done()
			ok, failed := n.prefetchFrom(dst, group)
			mu.Lock()
			staged += ok
			targets = append(targets, failed...)
			mu.Unlock()
		}
		// The last group runs here: this goroutine only waits otherwise.
		left := len(groups)
		for dst, group := range groups {
			if left--; left > 0 {
				go fetch(dst, group)
			} else {
				fetch(dst, group)
			}
		}
		wg.Wait()
	}
	return staged
}

// prefetchFrom fetches group from dst with as many plan-sized opFetch
// calls as rpc.DefaultBatchItems and the answers' byte bound require —
// an epoch-scale plan batch cannot build one monster frame — and returns
// the targets dst could not serve so the caller can fail over.
func (n *Node) prefetchFrom(dst int, group []*prefetchTarget) (staged int, failed []*prefetchTarget) {
	keys := make([]string, len(group))
	for i, t := range group {
		keys[i] = t.m.Path
	}
	for len(group) > 0 {
		end := min(len(group), rpc.DefaultBatchItems)
		ok, f, answered := n.prefetchChunk(dst, keys[:end], group[:end])
		keys, group = keys[answered:], group[answered:]
		staged += ok
		failed = append(failed, f...)
	}
	return staged, failed
}

// prefetchChunk issues one opFetch call to dst for one plan-sized
// slice of targets, decompresses what came back, and once every stride
// has decoded stages it and finishes each staged target's flight: an open
// coalesced on one of them waits for the whole call, not its own object.
// answered is how many of the first targets the call settled: fewer than
// all if dst answered a prefix.
func (n *Node) prefetchChunk(dst int, keys []string, group []*prefetchTarget) (staged int, failed []*prefetchTarget, answered int) {
	n.batchedFetches.Inc()
	resp, err := n.client.Call(dst, encodeFetch(n.view.Version(), keys))
	if err != nil {
		return 0, group, len(group)
	}
	// The items alias resp; it is recycled once the last one is decoded.
	defer decomp.PutBuf(resp)
	items, err := rpc.DecodeItems(resp)
	if err != nil || len(items) == 0 || len(items) > len(group) {
		return 0, group, len(group)
	}
	group = group[:len(items)]
	// Split the batch into at most GOMAXPROCS strides, each a goroutine
	// decoding every strides-th item, and wait for them: a batch of small
	// objects costs a handful of goroutines, not one per object. Stride 0
	// stays off this goroutine: run here, it raised train_lz's step_p95 by
	// a tenth on two vCPUs.
	decoded := make([][]byte, len(items))
	strides := max(1, min(len(items), runtime.GOMAXPROCS(0)))
	var wg sync.WaitGroup
	wg.Add(strides)
	for j := 0; j < strides; j++ {
		go func() {
			defer wg.Done()
			for i := j; i < len(items); i += strides {
				it := &items[i]
				if it.Status != rpc.ItemOK || len(it.Payload) < 2 {
					continue
				}
				n.remoteBytes.Add(int64(len(it.Payload)))
				if data, err := n.decompress(group[i].m, binary.LittleEndian.Uint16(it.Payload), it.Payload[2:]); err == nil {
					decoded[i] = data
				}
			}
		}()
	}
	wg.Wait()
	for i, it := range items {
		t := group[i]
		if it.Status != rpc.ItemOK || len(it.Payload) < 2 || decoded[i] == nil {
			failed = append(failed, t)
			continue
		}
		if n.cache.InsertIdle(t.id, decoded[i], true) {
			staged++
		}
		n.cache.finishFlight(t.id, t.flight, nil)
	}
	return staged, failed, len(group)
}

// decompress turns a compressed object into file bytes on the calling
// goroutine, an opener's or a prefetch stride's, validating size against
// the metadata record. It runs the codec's one decoder, Decompress, whose
// decoder state the codec package lends for the call. The returned
// buffer comes from the decomp buffer pool: ownership passes to the
// caller, who must hand it to the cache via Insert/InsertIdle as owned
// (or recycle it on failure). The latency histogram brackets codec time
// only.
func (n *Node) decompress(m *FileMeta, compressorID uint16, comp []byte) ([]byte, error) {
	start := time.Now()
	tstart := n.tracer.Begin()
	cfg, ok := codec.ByID(compressorID)
	if !ok {
		n.tracer.End(trace.OpDecompress, m.Path, trace.OutcomeError, tstart)
		return nil, fmt.Errorf("fanstore: %s: unknown compressor %d", m.Path, compressorID)
	}
	// m.Size is a claim — a partition's, or a peer's record — and so is
	// the length the stream declares, which its codec holds to the
	// payload. Decode only when the two agree, into a buffer of no more
	// than 256 bytes a payload byte (the LZ family's ceiling; a denser
	// stream grows it as it decodes).
	var out []byte
	declared, err := codec.DecodedLen(comp)
	if err == nil && int64(declared) != m.Size {
		err = fmt.Errorf("stream declares %d bytes, metadata says %d", declared, m.Size)
	}
	if err == nil {
		out, err = cfg.Codec.Decompress(decomp.GetBuf(int(min(m.Size, 256*int64(len(comp))))), comp)
	}
	n.decompressHist.Observe(time.Since(start))
	if err != nil {
		decomp.PutBuf(out)
		n.tracer.End(trace.OpDecompress, m.Path, trace.OutcomeError, tstart)
		return nil, fmt.Errorf("fanstore: %s: %w", m.Path, err)
	}
	n.tracer.End(trace.OpDecompress, m.Path, trace.OutcomeNone, tstart)
	if int64(len(out)) != m.Size {
		decomp.PutBuf(out)
		return nil, fmt.Errorf("fanstore: %s: decompressed %d bytes, metadata says %d", m.Path, len(out), m.Size)
	}
	n.decompresses.Inc()
	return out, nil
}

// openBytes produces the decompressed bytes of object id, whose record
// and locality lookup read, following Fig. 2: cache, then local backend,
// then remote fetch. Concurrent producers of the same uncached file —
// other opens, or a prefetch staging it — share one fetch+decode via
// singleflight (flight.go): the waiter blocks on the leader's flight,
// then pins the shared cache entry. pinned reports whether the returned
// bytes hold a cache pin the caller must Release — false only for the
// zero-copy passthrough path, which never enters the cache. outcome tells
// the tracer which arm of Fig. 2 served the open; an open served by
// another producer's flight reports OutcomeCoalesced.
func (n *Node) openBytes(id uint32, o object) (data []byte, pinned bool, outcome trace.Outcome, err error) {
	coalesced := false
	for {
		if data, ok := n.cache.Acquire(id); ok {
			outcome := trace.OutcomeCacheHit
			if coalesced {
				outcome = trace.OutcomeCoalesced
			}
			return data, true, outcome, nil
		}
		f, leader := n.cache.beginFlight(id)
		if !leader {
			n.fetchCoalesced.Inc()
			coalesced = true
			f.done.Wait()
			if f.err != nil && !errors.Is(f.err, errFlightAbandoned) {
				return nil, false, trace.OutcomeError, f.err
			}
			// The leader's result is in the cache (pinned by an open
			// leader, or staged idle by a prefetch leader); Acquire
			// shares it. If it was abandoned or already evicted (tiny
			// cache), loop: the next pass leads its own flight.
			continue
		}
		data, pinned, outcome, err := n.produceBytes(id, o)
		n.cache.finishFlight(id, f, err)
		return data, pinned, outcome, err
	}
}

// produceBytes performs the actual Fig. 2 data path for one file. pinned
// is false for the zero-copy path (no cache entry to release). The
// backend and the writes table are asked by path, for the bytes only.
func (n *Node) produceBytes(id uint32, o object) (data []byte, pinned bool, outcome trace.Outcome, err error) {
	m := o.meta
	switch {
	case o.local && m.Written:
		n.mu.RLock()
		wdata := n.writes[m.Path]
		n.mu.RUnlock()
		n.localOpens.Inc()
		return n.cache.Insert(id, wdata, false), true, trace.OutcomeMetaHit, nil
	case o.local:
		n.localOpens.Inc()
		// Uncompressed RAM-resident objects are served zero-copy from the
		// partition blob: no decompression, no cache footprint (the blob
		// is already resident node-local storage). Counted separately so
		// the decompression count stays truthful for uncompressed datasets.
		outcome = trace.OutcomeLocal
		cid, comp, ok := n.backend.Peek(m.Path)
		if ok {
			if payload, ok := codec.Passthrough(cid, comp); ok {
				n.zeroCopyOpens.Inc()
				return payload, false, trace.OutcomeZeroCopy, nil
			}
		} else {
			// Peek declined: the backend cannot lend the object, so this
			// open pays a Get.
			outcome = trace.OutcomeBackendGet
			if cid, comp, err = n.backend.Get(m.Path); err != nil {
				// Handed off since the lookup: the new record routes it.
				if _, now, _ := n.resolve(m.Path); errors.Is(err, ErrNotExist) && !now.local {
					return n.produceBytes(id, now)
				}
				return nil, false, trace.OutcomeError, err
			}
		}
		data, err := n.decompress(m, cid, comp)
		if err != nil {
			return nil, false, trace.OutcomeError, err
		}
		return n.cache.Insert(id, data, true), true, outcome, nil
	default:
		n.remoteOpens.Inc()
		cid, comp, frame, outcome, err := n.fetchRemote(m)
		if err != nil {
			return nil, false, outcome, err
		}
		data, err := n.decompress(m, cid, comp)
		decomp.PutBuf(frame) // every codec copies out of comp: the frame is dead
		if err != nil {
			return nil, false, trace.OutcomeError, err
		}
		return n.cache.Insert(id, data, true), true, outcome, nil
	}
}

// PlanObject resolves a path for the epoch planner (prefetch.PlanStore):
// its object ID, its decompressed size, and whether producing it
// requires a remote fetch (neither written here nor backend-resident).
// ok is false for a path this node does not know; the plan skips it.
func (n *Node) PlanObject(path string) (id uint32, size int64, remote, ok bool) {
	id, o, ok := n.resolve(cleanPath(path))
	if !ok {
		return 0, 0, false, false
	}
	return id, o.meta.Size, !o.local, true
}

// PlanTarget is PlanObject without the ID: a path's decompressed size and
// whether reading it needs a remote fetch. Unknown paths report
// (0, false).
func (n *Node) PlanTarget(path string) (size int64, remote bool) {
	_, size, remote, _ = n.PlanObject(path)
	return size, remote
}

// Expect installs an epoch's access order in the cache
// (prefetch.PlanStore): the object ID of every distinct path the epoch
// will read, local and remote, in order, as PlanObject gave them. Until
// the next call the cache evicts by next use, and what is already
// resident and will be read is protected before staging starts
// (Cache.Expect). IDs this node never gave are dropped.
func (n *Node) Expect(ids []uint32) {
	n.mu.RLock()
	count := uint32(len(n.objs))
	n.mu.RUnlock()
	if slices.ContainsFunc(ids, func(id uint32) bool { return id >= count }) {
		ids = slices.DeleteFunc(slices.Clone(ids), func(id uint32) bool { return id >= count })
	}
	n.cache.Expect(ids)
}

// CacheHeadroom reports the decompressed cache capacity the planner may
// still stage into: the room of the tightest cache shard after its pinned
// and staged entries, times the shard count (Cache.Headroom).
func (n *Node) CacheHeadroom() int64 { return n.cache.Headroom() }

// StagedBytes reports the bytes protected for the installed plan —
// staged by prefetch or retained from an earlier epoch — and not yet
// consumed by an open: the quantity the planner's admission rule bounds.
func (n *Node) StagedBytes() int64 { return n.cache.StagedBytes() }

// AdmissionBytes reports the node's staged-bytes budget (0: the plan
// scheduler falls back to live cache headroom). Hand this method to
// prefetch.SchedOptions.AdmissionSource.
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

// Registry exposes the node's metrics registry (the one passed in
// Options.Metrics, or the private one Mount created). Cluster reports
// snapshot it; CLI flags dump it.
func (n *Node) Registry() *metrics.Registry { return n.reg }

// Tracer exposes the node's span tracer (nil when tracing is disabled).
func (n *Node) Tracer() *trace.Tracer { return n.tracer }

// Rank returns the rank this node runs on.
func (n *Node) Rank() int { return n.comm.Rank() }

// ID returns this node's stable cluster identity. On a static mount it
// equals the rank.
func (n *Node) ID() member.NodeID { return n.selfID }

// View returns the node's cluster-map view (the identity StaticMap on a
// static mount).
func (n *Node) View() *member.View { return n.view }

// MapVersion returns the cluster-map version the node currently routes
// under.
func (n *Node) MapVersion() uint64 { return n.view.Version() }

// NumFiles reports the number of files in the global namespace.
func (n *Node) NumFiles() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return len(n.objs)
}

// LocalFiles reports how many objects this rank's backend holds.
func (n *Node) LocalFiles() int { return n.backend.Len() }
