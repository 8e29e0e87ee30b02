package fanstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"fanstore/internal/decomp"
	"fanstore/internal/ec"
	"fanstore/internal/member"
	"fanstore/internal/metrics"
	"fanstore/internal/obs"
	"fanstore/internal/pack"
	"fanstore/internal/rpc"
)

// Redundancy is the mount-time redundancy selection of an elastic mount:
// the zero value is none (a dead owner's data is lost, ErrLost), any
// other an ec(k,m) geometry. ec(1,m) is (m+2)-way mirroring: each of the
// k+m shards alone rebuilds the blob, and the owner keeps its own copy.
type Redundancy struct{ K, M int }

// ParseRedundancy parses the flag syntax: "none" (or empty) and
// "ec(k,m)", e.g. "ec(4,2)"; n copies of every partition are ec(1,n-2).
func ParseRedundancy(s string) (Redundancy, error) {
	var r Redundancy
	switch s = strings.ReplaceAll(strings.ToLower(s), " ", ""); s {
	case "", "none":
		return r, nil
	case "replicate":
		return r, fmt.Errorf("fanstore: redundancy %q places no copy; two copies of every partition are ec(1,0)", s)
	}
	if _, err := fmt.Sscanf(s, "ec(%d,%d)", &r.K, &r.M); err != nil || r.String() != s {
		return Redundancy{}, fmt.Errorf("fanstore: unknown redundancy %q (want none or ec(k,m))", s)
	}
	if _, err := ec.New(r.K, r.M); err != nil {
		return Redundancy{}, err
	}
	return r, nil
}

// String renders the flag syntax back.
func (r Redundancy) String() string {
	if r == (Redundancy{}) {
		return "none"
	}
	return fmt.Sprintf("ec(%d,%d)", r.K, r.M)
}

// code validates the redundancy selection and returns the erasure code
// of an ec(k,m) mount (nil for none).
func (r Redundancy) code(elastic bool) (*ec.Code, error) {
	if r == (Redundancy{}) {
		return nil, nil
	}
	if !elastic {
		return nil, fmt.Errorf("fanstore: ec redundancy requires an elastic mount (a static mount's Replicas are read locality)")
	}
	return ec.New(r.K, r.M)
}

// ecShard is one erasure shard held for a peer's partition.
type ecShard struct {
	hdr  pack.ShardHeader
	data []byte
}

// degradedPart is a partition blob reconstructed from shards, kept
// parsed so every degraded read of the partition after the first is a
// map lookup. Dropped when the repair commit re-homes the partition.
type degradedPart struct {
	blob   []byte
	byPath map[string]*pack.Entry
}

// ecState is the per-node erasure machinery of an ec(k,m) mount.
type ecState struct {
	code *ec.Code

	mu sync.Mutex
	// held maps gid -> shard index -> shard stored on this node for
	// peers (and for its own partitions — the owner is a holder too).
	held map[uint64]map[uint8]ecShard
	// placed maps each partition this node owns to the holder of each
	// of its shard indices, as last pushed (ecRestore).
	placed map[uint64][]member.NodeID
	// deg caches reconstructed partitions serving degraded reads;
	// degWait singleflights the reconstruction per gid.
	deg     map[uint64]*degradedPart
	degWait map[uint64]chan struct{}

	degradedReads   *metrics.Counter   // ec.degraded.reads
	reconstructHist *metrics.Histogram // ec.reconstruct.latency
	repairBytes     *metrics.Counter   // ec.repair.bytes
}

func newECState(code *ec.Code, reg *metrics.Registry) *ecState {
	return &ecState{
		code:            code,
		held:            make(map[uint64]map[uint8]ecShard),
		placed:          make(map[uint64][]member.NodeID),
		deg:             make(map[uint64]*degradedPart),
		degWait:         make(map[uint64]chan struct{}),
		degradedReads:   reg.Counter("ec.degraded.reads"),
		reconstructHist: reg.Histogram("ec.reconstruct.latency"),
		repairBytes:     reg.Counter("ec.repair.bytes"),
	}
}

// handleFetchShard answers opFetchShard: every shard of the requested
// partition held locally, as concatenated shard frames.
func (n *Node) handleFetchShard(body []byte) ([]byte, error) {
	if n.ec == nil {
		return nil, fmt.Errorf("fanstore: shard fetch on a non-ec mount")
	}
	if len(body) != 8 {
		return nil, fmt.Errorf("fanstore: bad shard fetch frame")
	}
	gid := binary.LittleEndian.Uint64(body)
	n.ec.mu.Lock()
	set := n.ec.held[gid]
	size := 0
	for _, sh := range set {
		size += pack.ShardFrameLen(len(sh.data))
	}
	resp := decomp.GetBuf(size)
	for i := range n.ec.code.Shards() {
		if sh, ok := set[uint8(i)]; ok {
			resp = pack.MarshalShard(resp, sh.hdr, sh.data)
		}
	}
	n.ec.mu.Unlock()
	if len(set) == 0 {
		decomp.PutBuf(resp)
		return nil, fmt.Errorf("%w: no shards of partition %d", rpc.ErrNotFound, gid)
	}
	return resp, nil
}

// handleStoreShard answers opStoreShard: one or more concatenated shard
// frames to hold for a peer. Re-pushes overwrite — shard placement is
// deterministic, so a repair writing the same (gid, index) is refreshing
// the same slot, never corrupting it.
func (n *Node) handleStoreShard(body []byte) ([]byte, error) {
	if n.ec == nil {
		return nil, fmt.Errorf("fanstore: shard store on a non-ec mount")
	}
	shards, err := pack.ParseShards(body)
	if err != nil {
		return nil, err
	}
	for _, sh := range shards {
		if int(sh.Header.K) != n.ec.code.K() || int(sh.Header.M) != n.ec.code.M() {
			return nil, fmt.Errorf("fanstore: shard %d of partition %d has geometry (%d,%d), mount is (%d,%d)",
				sh.Header.Index, sh.Header.GID, sh.Header.K, sh.Header.M, n.ec.code.K(), n.ec.code.M())
		}
		if !shardFits(sh) {
			return nil, fmt.Errorf("fanstore: shard %d of partition %d claims a %d-byte blob over %d-byte shards",
				sh.Header.Index, sh.Header.GID, sh.Header.BlobSize, len(sh.Data))
		}
		n.ecStoreShard(sh)
	}
	resp := decomp.GetBuf(1)
	return append(resp, 1), nil
}

// shardFits bounds BlobSize — a peer's u64, which sizes the allocation a
// rebuild joins into — by what k shards of this length can hold.
func shardFits(sh pack.Shard) bool {
	return sh.Header.BlobSize <= uint64(sh.Header.K)*uint64(len(sh.Data))
}

// ecStoreShard copies one shard into the held set (the frame's backing
// buffer belongs to the rpc layer and dies with the request).
func (n *Node) ecStoreShard(sh pack.Shard) {
	cp := make([]byte, len(sh.Data))
	copy(cp, sh.Data)
	n.ec.mu.Lock()
	set := n.ec.held[sh.Header.GID]
	if set == nil {
		set = make(map[uint8]ecShard)
		n.ec.held[sh.Header.GID] = set
	}
	set[sh.Header.Index] = ecShard{hdr: sh.Header, data: cp}
	n.ec.mu.Unlock()
}

// ecRestore lists the shard pushes due under map cm, by partition: the
// holder of each shard index to push, NoNode where none is due. Due are
// every shard of the partitions in fresh (mounted, or taken over by a
// commit) and of each other partition this node owns, the shards whose
// holder cm no longer has alive. A due shard goes to a live non-owner
// (the owner's loss must not take shards with it) holding no shard of
// the stripe, else another live node, else the owner, picked by gid.
func (n *Node) ecRestore(cm *member.ClusterMap, fresh []uint64) map[uint64][]member.NodeID {
	pushes := make(map[uint64][]member.NodeID)
	due := func() []member.NodeID {
		to := make([]member.NodeID, n.ec.code.Shards())
		for i := range to {
			to[i] = member.NoNode
		}
		return to
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	n.ec.mu.Lock()
	defer n.ec.mu.Unlock()
	for _, gid := range fresh {
		n.ec.placed[gid] = due()
	}
	for gid, holders := range n.ec.placed {
		for i, h := range holders {
			if _, err := cm.RankOf(h); err == nil || n.parts[gid] == nil {
				continue
			}
			var free, others []member.NodeID
			for _, node := range cm.Alive() {
				if node.ID != n.selfID {
					others = append(others, node.ID)
					if !slices.Contains(holders, node.ID) {
						free = append(free, node.ID)
					}
				}
			}
			if len(free) == 0 {
				free = others // each holds a shard of the stripe already
			}
			if len(free) == 0 {
				free = []member.NodeID{n.selfID} // no other node is alive
			}
			holders[i] = free[gid%uint64(len(free))]
			if pushes[gid] == nil {
				pushes[gid] = due()
			}
			pushes[gid][i] = holders[i]
		}
	}
	return pushes
}

// ecPushParts encodes and delivers shard pushes of partitions this node
// owns, under map cm: a mount's initial placement, or (repair) what a
// commit made due — the pushed bytes count into ec.repair.bytes and the
// batch reports one event. A partition handed off again before its push
// ran is skipped.
func (n *Node) ecPushParts(cm *member.ClusterMap, pushes map[uint64][]member.NodeID, repair bool) error {
	var lastErr error
	pushed := 0
	for gid, to := range pushes {
		n.mu.RLock()
		p := n.parts[gid]
		n.mu.RUnlock()
		if p == nil {
			continue
		}
		pushed++
		if err := n.ecPushPartition(cm, p, to, repair); err != nil {
			lastErr = err
		}
	}
	if repair && pushed > 0 && n.events.Enabled() {
		if lastErr != nil {
			n.events.Emitf(obs.EvECRepair, obs.SevError,
				"re-encoded shards for %d partitions under map v%d; incomplete: %v", pushed, cm.Version, lastErr)
		} else {
			n.events.Emitf(obs.EvECRepair, obs.SevInfo,
				"re-encoded and re-scattered shards for %d partitions under map v%d", pushed, cm.Version)
		}
	}
	return lastErr
}

// ecPushPartition splits and encodes one partition, and delivers shard i
// to to[i] for every index to names. Local slots store directly; remote
// slots go through opStoreShard, one call per holder carrying all its
// shards.
func (n *Node) ecPushPartition(cm *member.ClusterMap, p *nodePart, to []member.NodeID, countRepair bool) error {
	code := n.ec.code
	shards := code.Split(p.blob)
	if err := code.Encode(shards); err != nil {
		return err
	}
	base := pack.ShardHeader{
		GID:      p.gid,
		K:        uint8(code.K()),
		M:        uint8(code.M()),
		BlobSize: uint64(len(p.blob)),
		BlobCRC:  crc32.ChecksumIEEE(p.blob),
	}
	if len(to) == 0 {
		return fmt.Errorf("fanstore: no holders for partition %d", p.gid)
	}
	frames := make(map[member.NodeID][]byte)
	for i, sh := range shards {
		if dst := to[i]; dst != member.NoNode {
			h := base
			h.Index = uint8(i)
			frames[dst] = pack.MarshalShard(frames[dst], h, sh)
		}
	}
	dsts := make([]member.NodeID, 0, len(frames))
	for dst := range frames {
		dsts = append(dsts, dst)
	}
	sort.Slice(dsts, func(i, j int) bool { return dsts[i] < dsts[j] })
	var lastErr error
	for _, dst := range dsts {
		body := frames[dst]
		if countRepair {
			n.ec.repairBytes.Add(int64(len(body)))
		}
		if dst == n.selfID {
			shs, err := pack.ParseShards(body)
			if err != nil {
				return err
			}
			for _, sh := range shs {
				n.ecStoreShard(sh)
			}
			continue
		}
		rank, err := cm.RankOf(dst)
		if err != nil {
			lastErr = err
			continue
		}
		req := make([]byte, 1, 1+len(body))
		req[0] = opStoreShard
		if _, err := n.client.Call(rank, append(req, body...)); err != nil {
			lastErr = err
		}
	}
	return lastErr
}

// ecGatherShards collects gid's shards from this node and every alive
// peer, stopping at any k distinct indices with consistent geometry that
// fit and agree on the blob they stripe (a refused shard counts as lost).
// Per-peer failures (including the dead owner timing out) only matter
// if they leave fewer than k shards.
func (n *Node) ecGatherShards(gid uint64) ([][]byte, pack.ShardHeader, error) {
	code := n.ec.code
	shards := make([][]byte, code.Shards())
	var hdr pack.ShardHeader
	var lastErr error
	have := 0
	take := func(sh pack.Shard) {
		if sh.Header.GID != gid || int(sh.Header.K) != code.K() || int(sh.Header.M) != code.M() {
			return
		}
		i := int(sh.Header.Index)
		if i >= len(shards) || shards[i] != nil {
			return
		}
		if !shardFits(sh) || have > 0 && (sh.Header.BlobSize != hdr.BlobSize || sh.Header.BlobCRC != hdr.BlobCRC) {
			lastErr = fmt.Errorf("shard %d refused: it describes a %d-byte blob, crc %08x, over %d-byte shards; the %d taken, %d bytes, crc %08x",
				i, sh.Header.BlobSize, sh.Header.BlobCRC, len(sh.Data), have, hdr.BlobSize, hdr.BlobCRC)
			return
		}
		cp := make([]byte, len(sh.Data))
		copy(cp, sh.Data)
		shards[i] = cp
		hdr = sh.Header
		have++
	}
	n.ec.mu.Lock()
	for _, sh := range n.ec.held[gid] {
		take(pack.Shard{Header: sh.hdr, Data: sh.data})
	}
	n.ec.mu.Unlock()
	if have < code.K() {
		cm := n.view.Map()
		var dsts []int
		for _, node := range cm.Alive() {
			if node.ID != n.selfID {
				dsts = append(dsts, node.Rank)
			}
		}
		req := make([]byte, 9)
		req[0] = opFetchShard
		binary.LittleEndian.PutUint64(req[1:], gid)
		for _, res := range n.client.Scatter(dsts, req) {
			if res.Err != nil {
				lastErr = res.Err
				continue
			}
			shs, err := pack.ParseShards(res.Resp)
			if err != nil {
				lastErr = err
				continue
			}
			for _, sh := range shs {
				take(sh)
			}
		}
		if have < code.K() {
			return nil, hdr, fmt.Errorf("fanstore: partition %d: %d/%d shards survive (%w, last error: %v)",
				gid, have, code.K(), ec.ErrShortSet, lastErr)
		}
	}
	return shards, hdr, nil
}

// ecRebuildPart reconstructs one partition blob from surviving shards,
// on the caller: it gathered the shards here and waits for the blob, and
// the scheduler already bounds the matrix work to GOMAXPROCS threads.
func (n *Node) ecRebuildPart(gid uint64) (*degradedPart, error) {
	start := time.Now()
	shards, hdr, err := n.ecGatherShards(gid)
	if err != nil {
		return nil, err
	}
	code := n.ec.code
	if err := code.Reconstruct(shards); err != nil {
		return nil, err
	}
	blob, err := code.Join(make([]byte, 0, hdr.BlobSize), shards, int(hdr.BlobSize))
	if err != nil {
		return nil, err
	}
	if crc := crc32.ChecksumIEEE(blob); crc != hdr.BlobCRC {
		return nil, fmt.Errorf("fanstore: partition %d reconstructed with CRC %08x, want %08x", gid, crc, hdr.BlobCRC)
	}
	p, err := pack.Parse(blob)
	if err != nil {
		return nil, fmt.Errorf("fanstore: partition %d reconstructed but unparseable: %w", gid, err)
	}
	dp := &degradedPart{blob: blob, byPath: make(map[string]*pack.Entry, len(p.Entries))}
	for i := range p.Entries {
		dp.byPath[cleanPath(p.Entries[i].Path)] = &p.Entries[i]
	}
	n.ec.reconstructHist.Observe(time.Since(start))
	return dp, nil
}

// ecDegradedObject serves one object by reconstructing its partition
// from surviving shards — the read path of last resort when no whole
// copy is reachable. Reconstruction is singleflighted per partition and
// the result cached until the repair commit restores an owner, so a
// training loop hammering a dead owner's files pays the stripe gather
// once, not per read.
func (n *Node) ecDegradedObject(m *FileMeta) (uint16, []byte, error) {
	e := n.ec
	gid := m.PartGID
	for {
		e.mu.Lock()
		if dp := e.deg[gid]; dp != nil {
			e.mu.Unlock()
			return n.ecServeDegraded(dp, m)
		}
		if ch, ok := e.degWait[gid]; ok {
			e.mu.Unlock()
			<-ch
			continue
		}
		ch := make(chan struct{})
		e.degWait[gid] = ch
		e.mu.Unlock()
		dp, err := n.ecRebuildPart(gid)
		e.mu.Lock()
		delete(e.degWait, gid)
		if err == nil {
			e.deg[gid] = dp
		}
		e.mu.Unlock()
		close(ch)
		if err != nil {
			if n.events.Enabled() {
				n.events.Emitf(obs.EvDegradedRead, obs.SevError,
					"partition %d: degraded reconstruction failed: %v", gid, err)
			}
			return 0, nil, err
		}
		// One event per reconstruction (the singleflight leader), not per
		// degraded read — a training loop hammering a lost partition logs
		// once, while ec.degraded.reads counts every served read.
		if n.events.Enabled() {
			n.events.Emitf(obs.EvDegradedRead, obs.SevWarn,
				"partition %d reconstructed from shards; serving reads degraded", gid)
		}
		return n.ecServeDegraded(dp, m)
	}
}

func (n *Node) ecServeDegraded(dp *degradedPart, m *FileMeta) (uint16, []byte, error) {
	entry, ok := dp.byPath[m.Path]
	if !ok {
		return 0, nil, fmt.Errorf("%w: %q not in reconstructed partition %d", rpc.ErrNotFound, m.Path, m.PartGID)
	}
	n.ec.degradedReads.Inc()
	// entry.Data aliases dp.blob, which stays cached until the repair
	// commit; the decode path never recycles fetched bytes, so handing
	// out the alias is safe.
	return entry.CompressorID, entry.Data, nil
}

// ecDegradedCount reports how many partitions are currently served
// from cached reconstructions (0 on non-ec mounts) — the /healthz
// "degraded_parts" figure.
func (n *Node) ecDegradedCount() int {
	if n.ec == nil {
		return 0
	}
	n.ec.mu.Lock()
	defer n.ec.mu.Unlock()
	return len(n.ec.deg)
}

// ecDropDegraded forgets cached reconstructions of the partitions a
// commit moved — they have live owners again, so subsequent reads route
// normally and stop counting as degraded.
func (n *Node) ecDropDegraded(moved []transfer) {
	n.ec.mu.Lock()
	for _, tr := range moved {
		delete(n.ec.deg, tr.gid)
	}
	n.ec.mu.Unlock()
}
