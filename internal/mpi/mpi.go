// Package mpi is a small in-process SPMD message-passing runtime modeled
// on the MPI subset FanStore uses (§V-D): tagged point-to-point Send/Recv,
// Allgather for the metadata exchange, Bcast, Barrier, and a ring-neighbor
// helper for partition replication.
//
// Each rank runs as a goroutine with a tag-matched mailbox. This is the
// substitution for mpiexec-launched processes on a cluster: ordering
// semantics (non-overtaking per (src,tag) pair) and collective matching
// are preserved, so the FanStore daemon logic is exercised exactly as it
// would be across nodes.
//
// Buffer ownership. Send and Sendv are done with every part when they
// return: the in-process transport has copied the parts into one buffer,
// the TCP transport has written them to the socket (one vectored write of
// header and parts; no frame is assembled). Recv and RecvDeadline return
// a buffer the receiver owns. Buffers of decomp.MinBuf bytes and more
// come from the shared size-classed pool (decomp.GetBuf), so a received
// frame may carry up to 2x power-of-two slack in its capacity; smaller
// messages (a Barrier token, a 4-byte Allgather part) are allocated
// exact-size. The receiver may hand a buffer back with decomp.PutBuf
// exactly once, when no alias of it is live; dropping it is always safe —
// the GC takes it. A receiver that keeps a message for long should copy
// it into an exact-size slice and release the frame.
//
// The pool is internal/decomp's, imported here rather than moved to a
// leaf package: one implementation under the one name every layer
// already calls.
package mpi

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"fanstore/internal/decomp"
)

// AnySource matches messages from any rank in Recv.
const AnySource = -1

// ErrAborted is returned from blocked operations when another rank's
// function returned an error and the world shut down.
var ErrAborted = errors.New("mpi: world aborted")

// ErrTimeout is returned by RecvDeadline when no matching message arrives
// within the timeout. The message may still arrive later; it is then
// queued for the next receive on that (src, tag). A waiter that will
// never receive on the tag again (internal/rpc's per-attempt response
// tags) must cancel with Discard, or the late message stays queued for
// the life of the world.
var ErrTimeout = errors.New("mpi: recv deadline exceeded")

// maxFrame bounds one message. It must admit a partition blob, the
// largest thing the store sends (a rebalance pull moves a whole one, and
// the benchmark's are 64 MiB): 1 GiB leaves room for partitions sixteen
// times that and stays clear of the u32 length field of the TCP frame,
// where a longer payload would truncate its own length.
const maxFrame = 1 << 30

// ErrFrameTooLarge is returned by Send and Sendv, before anything is
// written, for a message longer than the transport carries (1 GiB).
var ErrFrameTooLarge = errors.New("mpi: message exceeds the frame limit")

// message is one in-flight message.
type message struct {
	src, tag int
	data     []byte
}

// msgKey names the (src, tag) pair of a canceled receive.
type msgKey struct{ src, tag int }

// mailbox is a rank's tag-matched receive queue.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []message
	closed bool
	// discards holds the canceled receives whose message has not arrived
	// yet; push drops the message and forgets the entry. An entry whose
	// message never comes (the peer died) stays, at two words each.
	discards map[msgKey]struct{}
}

func newMailbox() *mailbox {
	mb := &mailbox{}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

func (mb *mailbox) push(m message) error {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.closed {
		return ErrAborted
	}
	if len(mb.discards) > 0 {
		k := msgKey{m.src, m.tag}
		if _, ok := mb.discards[k]; ok {
			delete(mb.discards, k)
			decomp.PutBuf(m.data) // nobody has seen it: ours to recycle
			return nil
		}
	}
	mb.queue = append(mb.queue, m)
	mb.cond.Broadcast()
	return nil
}

// discard cancels the wait for one message from (src, tag): a queued
// match is dropped now, otherwise the pair is remembered for push.
func (mb *mailbox) discard(src, tag int) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for i, m := range mb.queue {
		if m.src == src && m.tag == tag {
			mb.queue = append(mb.queue[:i], mb.queue[i+1:]...)
			decomp.PutBuf(m.data)
			return
		}
	}
	if mb.closed {
		return
	}
	if mb.discards == nil {
		mb.discards = make(map[msgKey]struct{})
	}
	mb.discards[msgKey{src, tag}] = struct{}{}
}

// pop blocks until a message matching (src, tag) is available.
func (mb *mailbox) pop(src, tag int) (message, error) {
	return mb.popDeadline(src, tag, time.Time{})
}

// popDeadline is pop with an optional deadline (zero means block forever).
// A timer goroutine broadcasts the condition at the deadline so waiters
// can observe the timeout.
func (mb *mailbox) popDeadline(src, tag int, deadline time.Time) (message, error) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	timed := !deadline.IsZero()
	if timed {
		t := time.AfterFunc(time.Until(deadline), func() {
			mb.mu.Lock()
			mb.cond.Broadcast()
			mb.mu.Unlock()
		})
		defer t.Stop()
	}
	for {
		for i, m := range mb.queue {
			if (src == AnySource || m.src == src) && m.tag == tag {
				mb.queue = append(mb.queue[:i], mb.queue[i+1:]...)
				return m, nil
			}
		}
		if mb.closed {
			return message{}, ErrAborted
		}
		if timed && !time.Now().Before(deadline) {
			return message{}, ErrTimeout
		}
		mb.cond.Wait()
	}
}

func (mb *mailbox) close() {
	mb.mu.Lock()
	mb.closed = true
	mb.cond.Broadcast()
	mb.mu.Unlock()
}

// transport moves one message, the concatenation of parts, between
// ranks. The in-process transport pushes straight into the destination
// mailbox; the TCP transport (see tcp.go) serializes over real sockets.
// Both are done with parts when send returns.
type transport interface {
	send(src, dst, tag int, parts [][]byte) error
	close()
}

// recvBuf returns the n-byte buffer a message is received into: pooled
// from decomp.MinBuf up, exact-size below it.
func recvBuf(n int) []byte {
	if n < decomp.MinBuf {
		return make([]byte, n)
	}
	return decomp.GetBuf(n)[:n]
}

// partsLen is the length of the message parts make up.
func partsLen(parts [][]byte) int {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	return n
}

// localTransport delivers via direct mailbox pushes.
type localTransport struct{ w *World }

func (t localTransport) send(src, dst, tag int, parts [][]byte) error {
	cp := recvBuf(partsLen(parts))[:0]
	for _, p := range parts {
		cp = append(cp, p...)
	}
	return t.w.boxes[dst].push(message{src: src, tag: tag, data: cp})
}

func (t localTransport) close() {}

// World is a set of ranks sharing an interconnect.
type World struct {
	size  int
	boxes []*mailbox
	trans transport

	abortOnce sync.Once
}

// abort closes every mailbox, waking blocked ranks with ErrAborted.
// Joined worlds only materialize the local rank's mailbox; peer slots
// are nil.
func (w *World) abort() {
	w.abortOnce.Do(func() {
		for _, mb := range w.boxes {
			if mb != nil {
				mb.close()
			}
		}
	})
}

// Comm is one rank's handle on the world. Point-to-point operations are
// safe to call from multiple goroutines of the same rank (e.g. a FanStore
// daemon service loop next to the training loop); collective operations
// must be called by a single goroutine per rank, in the same order on
// every rank, matching MPI semantics.
type Comm struct {
	world *World
	rank  int

	collMu  sync.Mutex
	collSeq int
}

// Run starts n ranks, invoking f with each rank's Comm, and waits for all
// of them. The first non-nil error aborts the world (unblocking any rank
// stuck in Recv) and is returned. Messages move in-process; RunTCP runs
// the same contract over real sockets.
func Run(n int, f func(c *Comm) error) error {
	w, err := newWorld(n)
	if err != nil {
		return err
	}
	return w.run(f)
}

func newWorld(n int) (*World, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mpi: world size %d", n)
	}
	w := &World{size: n, boxes: make([]*mailbox, n)}
	for i := range w.boxes {
		w.boxes[i] = newMailbox()
	}
	w.trans = localTransport{w: w}
	return w, nil
}

func (w *World) run(f func(c *Comm) error) error {
	n := w.size
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			if err := f(&Comm{world: w, rank: r}); err != nil {
				errs[r] = err
				w.abort()
			}
		}(r)
	}
	wg.Wait()
	w.abort() // release any daemon goroutines still blocked in Recv
	w.trans.close()
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("mpi: rank %d: %w", r, err)
		}
	}
	return nil
}

// Rank returns this rank's id in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.world.size }

// Neighbor returns the next rank in the virtual ring topology used for
// extra-partition replication (§V-D).
func (c *Comm) Neighbor() int { return (c.rank + 1) % c.world.size }

// Send delivers data to dst with the given tag. The transport is done
// with data when Send returns, so the caller may reuse the buffer. User
// tags must be non-negative.
func (c *Comm) Send(dst, tag int, data []byte) error {
	return c.Sendv(dst, tag, data)
}

// Sendv is the vectored Send: dst receives one message, the parts in
// order, without the caller assembling them (a header next to a payload
// it does not own). Empty and nil parts contribute nothing; a message of
// no bytes is received as len == 0. It returns ErrFrameTooLarge, having
// sent nothing, when the parts exceed the frame limit.
func (c *Comm) Sendv(dst, tag int, parts ...[]byte) error {
	if tag < 0 {
		return fmt.Errorf("mpi: negative tags are reserved (tag %d)", tag)
	}
	return c.send(dst, tag, parts...)
}

func (c *Comm) send(dst, tag int, parts ...[]byte) error {
	if dst < 0 || dst >= c.world.size {
		return fmt.Errorf("mpi: send to rank %d of %d", dst, c.world.size)
	}
	if n := partsLen(parts); n > maxFrame {
		return fmt.Errorf("%w: %d bytes to rank %d", ErrFrameTooLarge, n, dst)
	}
	return c.world.trans.send(c.rank, dst, tag, parts)
}

// Recv blocks for a message from src (or AnySource) with the given tag
// and returns its payload and actual source. The receiver owns the
// payload (see the package doc).
func (c *Comm) Recv(src, tag int) ([]byte, int, error) {
	if tag < 0 {
		return nil, 0, fmt.Errorf("mpi: negative tags are reserved (tag %d)", tag)
	}
	return c.recv(src, tag)
}

func (c *Comm) recv(src, tag int) ([]byte, int, error) {
	if src != AnySource && (src < 0 || src >= c.world.size) {
		return nil, 0, fmt.Errorf("mpi: recv from rank %d of %d", src, c.world.size)
	}
	m, err := c.world.boxes[c.rank].pop(src, tag)
	if err != nil {
		return nil, 0, err
	}
	return m.data, m.src, nil
}

// RecvDeadline is Recv bounded by a timeout: it returns ErrTimeout when
// no matching message arrives in time. A non-positive timeout blocks
// forever, exactly like Recv. A message that arrives after the deadline
// is queued for the next receive on (src, tag) — what a caller that
// reuses the tag wants (the elastic ctrl stream); one that does not follows the
// timeout with Discard.
func (c *Comm) RecvDeadline(src, tag int, timeout time.Duration) ([]byte, int, error) {
	if tag < 0 {
		return nil, 0, fmt.Errorf("mpi: negative tags are reserved (tag %d)", tag)
	}
	if src != AnySource && (src < 0 || src >= c.world.size) {
		return nil, 0, fmt.Errorf("mpi: recv from rank %d of %d", src, c.world.size)
	}
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	m, err := c.world.boxes[c.rank].popDeadline(src, tag, deadline)
	if err != nil {
		return nil, 0, err
	}
	return m.data, m.src, nil
}

// Discard cancels the wait for one message from src with the given tag,
// after a RecvDeadline on a tag the caller will not receive on again
// timed out: a matching message already queued is dropped, otherwise the
// next one to arrive is — and its buffer recycled — instead of staying
// queued forever.
func (c *Comm) Discard(src, tag int) {
	if src >= 0 && src < c.world.size {
		c.world.boxes[c.rank].discard(src, tag)
	}
}

// Pending reports how many messages are queued at this rank and not yet
// received: a diagnostic for "nothing is left behind" checks.
func (c *Comm) Pending() int {
	mb := c.world.boxes[c.rank]
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return len(mb.queue)
}

// Internal collective tag space: negative tags, keyed by (op, sequence).
const (
	opBarrierGather = -iota - 1
	opBarrierRelease
	opGather
	opScatterBack
	opBcast
	numOps = 5
)

func collTag(op, seq int) int {
	return op - numOps*seq
}

// nextSeq reserves a collective sequence number.
func (c *Comm) nextSeq() int {
	c.collMu.Lock()
	s := c.collSeq
	c.collSeq++
	c.collMu.Unlock()
	return s
}

// Barrier blocks until every rank has entered it.
func (c *Comm) Barrier() error {
	seq := c.nextSeq()
	if c.rank == 0 {
		for i := 1; i < c.world.size; i++ {
			if _, _, err := c.recv(AnySource, collTag(opBarrierGather, seq)); err != nil {
				return err
			}
		}
		for i := 1; i < c.world.size; i++ {
			if err := c.send(i, collTag(opBarrierRelease, seq), nil); err != nil {
				return err
			}
		}
		return nil
	}
	if err := c.send(0, collTag(opBarrierGather, seq), nil); err != nil {
		return err
	}
	_, _, err := c.recv(0, collTag(opBarrierRelease, seq))
	return err
}

// Allgather exchanges each rank's data so every rank returns the slice
// [rank0's data, rank1's data, ...]. This is how FanStore builds its
// global metadata view after partition loading (§IV-C1).
func (c *Comm) Allgather(data []byte) ([][]byte, error) {
	seq := c.nextSeq()
	n := c.world.size
	if c.rank == 0 {
		parts := make([][]byte, n)
		parts[0] = append([]byte(nil), data...)
		for i := 1; i < n; i++ {
			d, src, err := c.recv(AnySource, collTag(opGather, seq))
			if err != nil {
				return nil, err
			}
			parts[src] = d
		}
		flat := flatten(parts)
		for i := 1; i < n; i++ {
			if err := c.send(i, collTag(opScatterBack, seq), flat); err != nil {
				return nil, err
			}
		}
		return parts, nil
	}
	if err := c.send(0, collTag(opGather, seq), data); err != nil {
		return nil, err
	}
	flat, _, err := c.recv(0, collTag(opScatterBack, seq))
	if err != nil {
		return nil, err
	}
	return unflatten(flat)
}

// Bcast distributes root's data to every rank.
func (c *Comm) Bcast(root int, data []byte) ([]byte, error) {
	seq := c.nextSeq()
	if c.rank == root {
		for i := 0; i < c.world.size; i++ {
			if i == root {
				continue
			}
			if err := c.send(i, collTag(opBcast, seq), data); err != nil {
				return nil, err
			}
		}
		return data, nil
	}
	d, _, err := c.recv(root, collTag(opBcast, seq))
	return d, err
}

// flatten encodes a slice-of-slices with uvarint-free framing (4-byte
// lengths) for collective transport.
func flatten(parts [][]byte) []byte {
	size := 4
	for _, p := range parts {
		size += 4 + len(p)
	}
	out := make([]byte, 0, size)
	out = appendU32(out, uint32(len(parts)))
	for _, p := range parts {
		out = appendU32(out, uint32(len(p)))
		out = append(out, p...)
	}
	return out
}

func unflatten(flat []byte) ([][]byte, error) {
	if len(flat) < 4 {
		return nil, fmt.Errorf("mpi: bad collective frame")
	}
	n := int(readU32(flat))
	off := 4
	maxPossible := (len(flat) - off) / 4
	if n > maxPossible {
		return nil, fmt.Errorf("mpi: collective frame declares %d parts", n)
	}
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		if off+4 > len(flat) {
			return nil, fmt.Errorf("mpi: collective frame truncated")
		}
		l := int(readU32(flat[off:]))
		off += 4
		if l > len(flat)-off {
			return nil, fmt.Errorf("mpi: collective frame truncated")
		}
		out = append(out, flat[off:off+l:off+l])
		off += l
	}
	return out, nil
}

func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func readU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
