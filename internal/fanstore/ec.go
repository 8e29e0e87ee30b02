package fanstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
	"strings"
	"sync"
	"time"

	"fanstore/internal/codec"
	"fanstore/internal/decomp"
	"fanstore/internal/ec"
	"fanstore/internal/member"
	"fanstore/internal/metrics"
	"fanstore/internal/obs"
	"fanstore/internal/pack"
	"fanstore/internal/rpc"
)

// RedundancyMode selects how a mount survives losing a node.
type RedundancyMode uint8

const (
	// RedundancyReplicate is the default whole-partition replication:
	// extra copies placed via Options.Replicas / RingReplicate, n-way
	// memory overhead, reads never degrade.
	RedundancyReplicate RedundancyMode = iota
	// RedundancyEC stripes every partition blob into k data + m parity
	// shards (internal/ec) scattered across the cluster at m/k overhead.
	// Losing up to m nodes keeps every object readable through degraded
	// reads that reconstruct the stripe from k survivors; a background
	// repair restores full redundancy. Elastic mounts only.
	RedundancyEC
)

// Redundancy is the mount-time redundancy selection.
type Redundancy struct {
	Mode RedundancyMode
	K, M int // ec(k,m) geometry; ignored for replicate
}

// ParseRedundancy parses the flag syntax: "replicate" (or empty) and
// "ec(k,m)", e.g. "ec(4,2)".
func ParseRedundancy(s string) (Redundancy, error) {
	s = strings.TrimSpace(strings.ToLower(s))
	switch {
	case s == "" || s == "replicate":
		return Redundancy{Mode: RedundancyReplicate}, nil
	case strings.HasPrefix(s, "ec(") && strings.HasSuffix(s, ")"):
		var k, m int
		if _, err := fmt.Sscanf(s, "ec(%d,%d)", &k, &m); err != nil {
			return Redundancy{}, fmt.Errorf("fanstore: bad redundancy %q (want ec(k,m))", s)
		}
		if _, err := ec.New(k, m); err != nil {
			return Redundancy{}, err
		}
		return Redundancy{Mode: RedundancyEC, K: k, M: m}, nil
	default:
		return Redundancy{}, fmt.Errorf("fanstore: unknown redundancy %q (want replicate or ec(k,m))", s)
	}
}

// String renders the flag syntax back.
func (r Redundancy) String() string {
	if r.Mode == RedundancyEC {
		return fmt.Sprintf("ec(%d,%d)", r.K, r.M)
	}
	return "replicate"
}

// code validates the redundancy selection and returns the erasure code
// of an ec(k,m) mount (nil when replicating).
func (r Redundancy) code(elastic bool) (*ec.Code, error) {
	if r.Mode != RedundancyEC {
		return nil, nil
	}
	if !elastic {
		return nil, fmt.Errorf("fanstore: ec redundancy requires an elastic mount (static mounts replicate)")
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

// ecState is the per-node erasure machinery of a RedundancyEC mount.
type ecState struct {
	code *ec.Code

	mu sync.Mutex
	// held maps gid -> shard index -> shard stored on this node for
	// peers (and for its own partitions — the owner is a holder too).
	held map[uint64]map[uint8]ecShard
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
		deg:             make(map[uint64]*degradedPart),
		degWait:         make(map[uint64]chan struct{}),
		degradedReads:   reg.Counter("ec.degraded.reads"),
		reconstructHist: reg.Histogram("ec.reconstruct.latency"),
		repairBytes:     reg.Counter("ec.repair.bytes"),
	}
}

// ecShardHolders lists the k+m node IDs that hold gid's shards, in
// shard-index order, under map cm. The placement is deterministic in
// (cm, gid) — push and gather recompute it independently — spreading
// shards round-robin over the alive nodes other than the owner (the
// owner's loss must not take shards with it), wrapping when the cluster
// is smaller than the stripe. With fewer than k+m+1 nodes the owner
// joins the rotation rather than leaving slots empty.
func (n *Node) ecShardHolders(cm *member.ClusterMap, owner member.NodeID, gid uint64) []member.NodeID {
	alive := cm.Alive()
	ids := make([]member.NodeID, 0, len(alive))
	for _, node := range alive {
		if node.ID != owner {
			ids = append(ids, node.ID)
		}
	}
	total := n.ec.code.Shards()
	if len(ids) < total {
		ids = ids[:0]
		for _, node := range alive {
			ids = append(ids, node.ID)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if len(ids) == 0 {
		return nil
	}
	out := make([]member.NodeID, total)
	start := int(gid % uint64(len(ids)))
	for i := range out {
		out[i] = ids[(start+i)%len(ids)]
	}
	return out
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
	idxs := make([]int, 0, len(set))
	for idx := range set {
		idxs = append(idxs, int(idx))
	}
	sort.Ints(idxs)
	size := 0
	for _, idx := range idxs {
		size += pack.ShardFrameLen(len(set[uint8(idx)].data))
	}
	resp := decomp.GetBuf(size)
	for _, idx := range idxs {
		sh := set[uint8(idx)]
		resp = pack.MarshalShard(resp, sh.hdr, sh.data)
	}
	n.ec.mu.Unlock()
	if len(idxs) == 0 {
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

// ecPushParts encodes and scatters the shards of the given partitions
// this node owns, under map cm: every partition it mounted with (the
// initial placement), or the ones a commit just made it the owner of
// (repair: the re-encode that restores full m-loss redundancy after a
// loss or move — shards the dead node held are regenerated; the pushed
// bytes count into ec.repair.bytes and the batch reports one event). A
// partition handed off again before its push ran is skipped.
func (n *Node) ecPushParts(cm *member.ClusterMap, gids []uint64, repair bool) error {
	var lastErr error
	pushed := 0
	for _, gid := range gids {
		n.mu.RLock()
		p := n.parts[gid]
		n.mu.RUnlock()
		if p == nil {
			continue
		}
		pushed++
		if err := n.ecPushPartition(cm, p, repair); err != nil {
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

// ecPushPartition splits, encodes, and delivers one partition's shards
// to their holders. Local slots store directly; remote slots go through
// opStoreShard, one call per holder carrying all its shards.
func (n *Node) ecPushPartition(cm *member.ClusterMap, p *nodePart, countRepair bool) error {
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
	holders := n.ecShardHolders(cm, n.selfID, p.gid)
	if len(holders) == 0 {
		return fmt.Errorf("fanstore: no holders for partition %d", p.gid)
	}
	frames := make(map[member.NodeID][]byte)
	for i, sh := range shards {
		h := base
		h.Index = uint8(i)
		dst := holders[i]
		frames[dst] = pack.MarshalShard(frames[dst], h, sh)
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

// ecRebuildPart reconstructs one partition blob from surviving shards.
// The matrix work runs on the shared decode pool at prefetch priority,
// so it is bounded by the pool's width together with the stager's
// batches.
func (n *Node) ecRebuildPart(gid uint64) (*degradedPart, error) {
	start := time.Now()
	shards, hdr, err := n.ecGatherShards(gid)
	if err != nil {
		return nil, err
	}
	code := n.ec.code
	var blob []byte
	n.decode.Run(decomp.PriPrefetch, func(*codec.Scratch) {
		if err = code.Reconstruct(shards); err != nil {
			return
		}
		blob, err = code.Join(make([]byte, 0, hdr.BlobSize), shards, int(hdr.BlobSize))
	})
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

// ecDropDegraded forgets cached reconstructions for the given
// partitions — called when a repair commit lands and the partitions
// have live owners again, so subsequent reads route normally and stop
// counting as degraded.
func (n *Node) ecDropDegraded(gids []uint64) {
	if n.ec == nil || len(gids) == 0 {
		return
	}
	n.ec.mu.Lock()
	for _, gid := range gids {
		delete(n.ec.deg, gid)
	}
	n.ec.mu.Unlock()
}
