package fanstore

import (
	"fmt"

	"fanstore/internal/member"
	"fanstore/internal/metrics"
	"fanstore/internal/mpi"
	"fanstore/internal/rpc"
)

// The node lifecycle: newNode builds the data path and starts the
// daemons, a mount's exchange loads and announces, and every exit — a
// failed exchange included — ends in stop, the one teardown. The exits
// differ only in the handshake they owe their peers first (DESIGN.md,
// "Node lifecycle"):
//
//	Close, static mount       world barrier
//	Close, elastic mount      bye to the coordinator, wait for its ack
//	LeaveCluster              one drain request; its commit takes the node off the map
//	FailStop, failed mount    none
//	failed JoinCluster        none before its hello, a best-effort drain request after

// newNode builds a Node's data-path machinery — cache, backend, rpc
// server/client, instruments — and starts its daemons, the rpc server's
// workers, without any collective traffic. A static mount's world is the
// identity map: node ID i is rank i and the version never moves past 1,
// so every membership code path runs unchanged and finds nothing to do.
// An elastic node starts as nobody on the empty map (version 0); its
// admission installs its identity and its map before any peer can know
// it (recvTable). The node owns opts.Backend from here on, whatever
// newNode returns.
//
// Serving before the exchange is safe: no peer can route a request here
// until this rank's mount has announced its objects, which happens after
// they are loaded (static: both Allgathers follow the load; elastic: the
// table is sent after every registration). It is what lets every exit
// after newNode call stop without asking whether the daemons ever ran.
func newNode(comm *mpi.Comm, elastic bool, opts Options) (*Node, error) {
	// Validate before anything is started: past this block there are
	// rpc workers to stop.
	code, err := opts.Redundancy.code(elastic)
	if err == nil && elastic && len(opts.Replicas) > 0 {
		err = fmt.Errorf("fanstore: Options.Replicas needs a static mount (Mount); an elastic mount announces no replicas")
	}
	if err != nil {
		if opts.Backend != nil {
			_ = opts.Backend.Close()
		}
		return nil, err
	}
	backend := opts.Backend
	if backend == nil {
		backend = NewRAMBackend()
	}
	if opts.CacheBytes <= 0 {
		opts.CacheBytes = 256 << 20
	}
	reg := opts.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	view, selfID := member.NewView(member.StaticMap(comm.Size())), member.NodeID(comm.Rank())
	if elastic {
		view, selfID = member.NewView(&member.ClusterMap{}), member.NoNode
	}
	n := &Node{
		comm:    comm,
		cache:   NewCache(opts.CacheBytes, opts.CachePolicy),
		backend: backend,
		view:    view,
		selfID:  selfID,
		names:   make(map[string]uint32),
		dirs:    newDirIndex(),
		writes:  make(map[string][]byte),
		parts:   make(map[uint64]*nodePart),
		reg:     reg,
		tracer:  opts.Tracer,
		events:  opts.Events,
	}
	if code != nil {
		n.ec = newECState(code, reg)
	}
	n.instrument()
	n.mapVersion.Set(int64(view.Version()))
	n.cache.instrument(reg, opts.Tracer, n.pathOf)
	n.cache.setEvents(opts.Events)
	n.server = rpc.NewReplyServer(comm, tagFetch, n.handleFetch, rpc.ServerOptions{Metrics: reg})
	n.client = rpc.NewClient(comm, tagFetch, tagRespBase, rpc.ClientOptions{
		Timeout: opts.FetchTimeout,
		Retries: opts.FetchRetries,
		Metrics: reg,
	})
	n.sealer = rpc.NewClient(comm, tagFetch, tagSealRespBase, rpc.ClientOptions{
		Timeout: opts.FetchTimeout,
		Retries: opts.FetchRetries,
	})
	return n, nil
}

// Mount loads this rank's partitions (plus an optional broadcast
// partition replicated on every rank) and exchanges metadata and replica
// announcements with all peers. Every rank of the communicator must call
// Mount collectively with its own partitions.
func Mount(comm *mpi.Comm, partitions [][]byte, broadcast []byte, opts Options) (*Node, error) {
	n, err := newNode(comm, false, opts)
	if err != nil {
		return nil, err
	}
	if err := n.exchange(partitions, opts.Replicas, broadcast); err != nil {
		_ = n.stop()
		return nil, err
	}
	return n, nil
}

// exchange is the static mount's load and its two collectives.
func (n *Node) exchange(partitions, replicas [][]byte, broadcast []byte) error {
	// Load assigned partitions into the local backend (§IV-C1).
	var localMetas []FileMeta
	for _, blob := range partitions {
		metas, err := n.loadPartition(blob)
		if err != nil {
			return err
		}
		localMetas = append(localMetas, metas...)
	}
	// Replica partitions are served locally but owned by the rank that
	// announces them; this rank announces only the paths, so peers can
	// route fetches here as an alternative to the owner.
	var replicaPaths []string
	for _, blob := range replicas {
		metas, err := n.loadPartition(blob)
		if err != nil {
			return err
		}
		for i := range metas {
			replicaPaths = append(replicaPaths, metas[i].Path)
		}
	}
	// The broadcast partition (validation data) is local on every rank
	// but owned by rank 0 for metadata purposes; it is not re-announced
	// by every rank to keep the Allgather frames linear in dataset size.
	if broadcast != nil {
		bmetas, err := n.loadPartition(broadcast)
		if err != nil {
			return err
		}
		if n.comm.Rank() == 0 {
			localMetas = append(localMetas, bmetas...)
		}
	}

	// Construct the global metadata view (§IV-C1): one Allgather, then
	// all metadata traffic is served from RAM.
	frames, err := n.comm.Allgather(encodeMetas(localMetas))
	if err != nil {
		return fmt.Errorf("fanstore: metadata allgather: %w", err)
	}
	for r, frame := range frames {
		metas, err := decodeMetas(frame)
		if err != nil {
			return fmt.Errorf("fanstore: rank %d metadata: %w", r, err)
		}
		for i := range metas {
			n.addMeta(metas[i])
		}
	}
	n.numberObjects()

	// Second collective: replica announcements. Running it after the
	// metadata exchange guarantees every owner record exists before a
	// replica rank is attached to it, whatever the rank order.
	repFrames, err := n.comm.Allgather(encodePaths(replicaPaths))
	if err != nil {
		return fmt.Errorf("fanstore: replica allgather: %w", err)
	}
	for r, frame := range repFrames {
		paths, err := decodePaths(frame)
		if err != nil {
			return fmt.Errorf("fanstore: rank %d replicas: %w", r, err)
		}
		for _, p := range paths {
			n.noteReplica(p, r)
		}
	}
	return nil
}

// Close shuts the node down. It must be called collectively after all
// ranks are done with the namespace: a static mount barriers over the
// world so no peer still needs this rank's objects; an elastic node
// cannot (only a subset of slots are members) and hands the sequencing
// to the coordinator's bye/ack handshake instead. A failed handshake —
// a peer aborted mid-run, or died without saying bye — does not keep the
// node up.
func (n *Node) Close() error {
	if n.closed.Swap(true) {
		return nil
	}
	if n.ectrl != nil {
		n.ectrl.sayBye()
	} else {
		_ = n.comm.Barrier()
	}
	return n.stop()
}

// stop is the one teardown, downstream first: control loop, fetch
// server, backend. The pills are sent unconditionally: when the world is
// already aborted the sends fail too, but then the loops have exited on
// their closed mailboxes.
func (n *Node) stop() error {
	if n.ectrl != nil {
		n.ectrl.stopLoop()
	}
	n.server.Stop()
	return n.backend.Close()
}
