package mpi

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"

	"fanstore/internal/decomp"
)

// RunTCP starts n ranks whose messages travel over real TCP connections
// on the loopback interface — the same SPMD contract as Run, but
// exercising frame serialization, the kernel network stack, and
// concurrent socket writers, as an mpiexec deployment over an IP fabric
// would. One connection is established per ordered rank pair on demand.
func RunTCP(n int, f func(c *Comm) error) error {
	w, err := newWorld(n)
	if err != nil {
		return err
	}
	t := &tcpTransport{w: w, conns: make(map[int]*tcpConn)}
	if err := t.listen(); err != nil {
		return err
	}
	w.trans = t
	return w.run(f)
}

// tcpFrame is the wire format: src, tag (zigzag: collectives use negative
// tags), payload length, payload.
//
//	u32 src | u64 zigzag(tag) | u32 len | len bytes
const tcpFrameHdr = 4 + 8 + 4

// tcpTransport carries messages over per-destination TCP connections.
// Listeners feed received frames straight into the local mailboxes.
type tcpTransport struct {
	w         *World
	listeners []net.Listener
	addrs     []string
	// dir enables lazy address resolution: an empty addrs slot is
	// resolved from the rendezvous directory at first dial, so a world
	// can start before every slot has published (JoinTCPMembers).
	dir string

	mu    sync.Mutex
	conns map[int]*tcpConn // key: src*size + dst
	done  sync.WaitGroup
}

// tcpConn pairs a connection with its writer lock, so concurrent senders
// to the same destination serialize without stalling other destinations.
// The frame header and the write vector live here, under the lock, so a
// send allocates nothing.
type tcpConn struct {
	mu  sync.Mutex
	c   net.Conn
	hdr [tcpFrameHdr]byte
	vec [][]byte    // backing array of buf, reused across sends
	buf net.Buffers // the vector being written; WriteTo consumes it
}

// listen opens one listener per rank and starts accept loops.
func (t *tcpTransport) listen() error {
	n := t.w.size
	t.listeners = make([]net.Listener, n)
	t.addrs = make([]string, n)
	for r := 0; r < n; r++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.close()
			return fmt.Errorf("mpi: tcp listen: %w", err)
		}
		t.listeners[r] = l
		t.addrs[r] = l.Addr().String()
	}
	for r := 0; r < n; r++ {
		r := r
		t.done.Add(1)
		go func() {
			defer t.done.Done()
			for {
				conn, err := t.listeners[r].Accept()
				if err != nil {
					return // listener closed at shutdown
				}
				t.done.Add(1)
				go func() {
					defer t.done.Done()
					t.reader(r, conn)
				}()
			}
		}()
	}
	return nil
}

// reader drains one inbound connection into rank r's mailbox. The header
// is peer input: a source outside the world or a length above maxFrame
// closes the connection before a byte of the body is allocated.
func (t *tcpTransport) reader(r int, conn net.Conn) {
	defer conn.Close()
	var hdr [tcpFrameHdr]byte
	for {
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return // peer closed (shutdown) or failed
		}
		src := binary.LittleEndian.Uint32(hdr[:4])
		z := binary.LittleEndian.Uint64(hdr[4:12])
		tag := int(int64(z>>1) ^ -int64(z&1))
		length := binary.LittleEndian.Uint32(hdr[12:16])
		if src >= uint32(t.w.size) || length > maxFrame {
			return
		}
		data, err := readBody(conn, int(length))
		if err != nil {
			decomp.PutBuf(data) // never delivered: nobody else holds it
			return
		}
		if t.w.boxes[r].push(message{src: int(src), tag: tag, data: data}) != nil {
			return // world aborted
		}
	}
}

// readBody reads one frame body into a buffer the receiver will own. Up
// to the pool's largest class that is one pool draw filled in place.
// Beyond it (a partition blob) the buffer grows as the bytes arrive, so
// the most a header can buy before its body shows up is one pool class.
func readBody(r io.Reader, length int) ([]byte, error) {
	data := recvBuf(min(length, decomp.MaxBuf))
	if _, err := io.ReadFull(r, data); err != nil {
		return data, err
	}
	for len(data) < length {
		have := len(data)
		step := min(length-have, have) // at most double what has arrived
		data = slices.Grow(data, step)[:have+step]
		if _, err := io.ReadFull(r, data[have:]); err != nil {
			return data, err
		}
	}
	return data, nil
}

// conn returns (dialing if needed) the connection for the (src, dst)
// ordered pair. A dedicated connection per pair keeps the per-(src,tag)
// non-overtaking guarantee: TCP preserves order within a connection.
func (t *tcpTransport) conn(src, dst int) (*tcpConn, error) {
	key := src*t.w.size + dst
	t.mu.Lock()
	defer t.mu.Unlock()
	if c, ok := t.conns[key]; ok {
		return c, nil
	}
	addr := t.addrs[dst]
	if addr == "" {
		if t.dir == "" {
			return nil, fmt.Errorf("mpi: tcp dial rank %d: no address", dst)
		}
		// Lazy rendezvous: the slot joined after this world formed (an
		// elastic spare); its address file appears when it comes up.
		resolved, err := readRendezvousAddr(t.dir, dst)
		if err != nil {
			return nil, fmt.Errorf("mpi: tcp dial rank %d: %w", dst, err)
		}
		t.addrs[dst] = resolved
		addr = resolved
	}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("mpi: tcp dial rank %d: %w", dst, err)
	}
	tc := &tcpConn{c: c}
	t.conns[key] = tc
	return tc, nil
}

// send writes header and parts as one vectored write (writev on a TCP
// socket; net.Buffers falls back to a Write per part elsewhere), so no
// frame is assembled in user space.
func (t *tcpTransport) send(src, dst, tag int, parts [][]byte) error {
	c, err := t.conn(src, dst)
	if err != nil {
		return err
	}
	// Serialize writers per connection: a rank's daemon and main
	// goroutine may send to the same destination concurrently, and the
	// parts of one frame must not interleave with another's.
	c.mu.Lock()
	binary.LittleEndian.PutUint32(c.hdr[:4], uint32(src))
	z := uint64(int64(tag)<<1) ^ uint64(int64(tag)>>63)
	binary.LittleEndian.PutUint64(c.hdr[4:12], z)
	binary.LittleEndian.PutUint32(c.hdr[12:16], uint32(partsLen(parts)))
	c.vec = append(c.vec[:0], c.hdr[:])
	for _, p := range parts {
		if len(p) > 0 {
			c.vec = append(c.vec, p)
		}
	}
	c.buf = c.vec
	_, err = c.buf.WriteTo(c.c)
	clear(c.vec) // keep no reference to the caller's parts
	c.mu.Unlock()
	if err != nil {
		return fmt.Errorf("mpi: tcp send to rank %d: %w", dst, err)
	}
	return nil
}

func (t *tcpTransport) close() {
	for _, l := range t.listeners {
		if l != nil {
			l.Close()
		}
	}
	t.mu.Lock()
	for _, c := range t.conns {
		c.c.Close()
	}
	t.conns = map[int]*tcpConn{}
	t.mu.Unlock()
	t.done.Wait()
}
