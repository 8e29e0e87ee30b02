// Package rpc is the FanStore daemon's wire layer: typed request/response
// framing over an mpi.Comm. It factors the transport concerns out of the
// store (§IV-C2, §V-A) so the data path is layered — storage backend
// below, fetch routing above, and this package in between.
//
// A Server answers requests concurrently through a bounded worker pool,
// so one slow handler (a spill read, a large response write) does not
// head-of-line-block every waiting rank. There is no dispatcher: each
// worker receives from the mailbox itself, so a request crosses one
// goroutine hand-off on the server. A shutdown pill is an empty frame
// from the server's own rank, one per worker; a peer's empty frame is a
// malformed request and is dropped. A Client issues calls with per-attempt
// deadlines and retries, allocating a unique response tag per attempt so
// late replies can never be mismatched; a reply that comes after its
// attempt timed out is discarded on arrival.
//
// Wire format. Request frame, sent to the server's request tag:
//
//	u32 respTag | payload          (len == 0 from the own rank: a pill)
//
// Response frame, sent back on respTag:
//
//	payload | u8 status            (payload is the error text on failure)
//
// Neither frame is assembled: each side sends its parts with one
// mpi.Sendv. The status is a trailer so that the payload starts where the
// received frame does — Call returns frame[:len-1], same base pointer and
// capacity, and the caller that owns it can hand it straight back to the
// buffer pool (decomp.PutBuf) once nothing aliases it.
//
// A handler fills a Reply with parts: owned (a decomp.GetBuf buffer,
// recycled once Sendv returns or an error drops the reply) or lent (bytes
// that must not change until the send returns: a stored object, the
// request), which the TCP transport's writev reads after the handler has
// returned, uncopied. NewServer, whose handler returns one pooled buffer,
// is an adapter kept only because bench/probes.go passes it such a literal.
package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fanstore/internal/decomp"
	"fanstore/internal/metrics"
	"fanstore/internal/mpi"
)

// Response status bytes.
const (
	statusOK       = 0
	statusNotFound = 1
	statusError    = 2
	statusStale    = 3
)

// statusTrailer holds each status as the ready-made last part of a
// response, so answering allocates nothing for it.
var statusTrailer = [...][]byte{{statusOK}, {statusNotFound}, {statusError}, {statusStale}}

// Errors surfaced by Client.Call.
var (
	// ErrNotFound reports the handler had no object for the request.
	// It is terminal: the same peer will keep not having it, so Call
	// does not retry (routing layers fail over to a replica instead).
	ErrNotFound = errors.New("rpc: object not found")
	// ErrRemote wraps a handler-side failure (spill read error, ...).
	ErrRemote = errors.New("rpc: remote handler error")
	// ErrTimeout reports that an attempt exceeded its deadline.
	ErrTimeout = errors.New("rpc: call timed out")
	// ErrStale reports a cluster-map version disagreement between caller
	// and handler. Terminal for this call: the caller must refresh its
	// map (and usually its routing metadata) before re-resolving the
	// route — blind retries against the same peer cannot converge.
	ErrStale = errors.New("rpc: stale cluster map")
)

// Handler services one request by filling r with the response's parts.
// Returning an error wrapping ErrNotFound maps to a not-found status, one
// wrapping ErrStale to a stale-map status; any other error maps to a
// remote-error status carrying the text. On an error the server drops the
// parts, recycling what r owns. req stays valid until the reply is sent (the
// server then recycles the request frame), so a part may lend it.
type Handler func(src int, req []byte, r *Reply) error

// Reply is the response a Handler builds: parts, sent in order with the
// status trailer in one mpi.Sendv, the frame never assembled. Each worker
// reuses one Reply, so a handler must not keep r or its parts.
type Reply struct {
	parts, owned [][]byte
}

// Own adds b as the next part and hands its decomp.GetBuf buffer to the
// server, which recycles it after the send. b may be empty: slices of the
// buffer, filled within its capacity, may follow as lent parts.
func (r *Reply) Own(b []byte) { r.parts, r.owned = append(r.parts, b), append(r.owned, b) }

// Lend adds b as the next part. The server only reads it, after the
// handler returned (the TCP transport's writev), so b must not change
// until the send returns: stored bytes, fresh memory, req, owned slices.
func (r *Reply) Lend(b []byte) { r.parts = append(r.parts, b) }

// Parts returns the parts added so far, in order.
func (r *Reply) Parts() [][]byte { return r.parts }

// reset recycles what r owns and empties it, keeping no lent part alive.
func (r *Reply) reset() {
	for _, b := range r.owned {
		decomp.PutBuf(b)
	}
	clear(r.parts)
	clear(r.owned)
	r.parts, r.owned = r.parts[:0], r.owned[:0]
}

// ServerOptions configures a Server.
type ServerOptions struct {
	// Metrics is the registry the server's instruments live in
	// ("rpc.server.*"), the only way to read them. Nil: unregistered.
	Metrics *metrics.Registry
}

// Server answers requests on one tag of a communicator through a fixed
// pool of workers, each receiving from the mailbox itself. Its counters,
// gauge and service-time histogram are registry instruments
// ("rpc.server.*").
type Server struct {
	comm    *mpi.Comm
	tag     int
	handler Handler
	workers int
	wg      sync.WaitGroup

	served, notFound, errors *metrics.Counter
	inService                *metrics.Gauge
	serviceHist              *metrics.Histogram // handler + reply time
}

// NewReplyServer builds a server for tag on comm and starts its workers:
// GOMAXPROCS of them, floored at 4 — fetch handlers block on backend
// I/O, so even a single-core node benefits from a few in flight.
func NewReplyServer(comm *mpi.Comm, tag int, handler Handler, opts ServerOptions) *Server {
	return newServer(comm, tag, handler, opts, max(runtime.GOMAXPROCS(0), 4))
}

// NewServer is NewReplyServer for a handler returning one decomp.GetBuf
// buffer, owned once returned without an error: the shape of the literal
// in bench/probes.go, its only caller. ROADMAP 2(e) deletes it.
func NewServer(comm *mpi.Comm, tag int, handler func(src int, req []byte) ([]byte, error), opts ServerOptions) *Server {
	return NewReplyServer(comm, tag, func(src int, req []byte, r *Reply) error {
		payload, err := handler(src, req)
		if err == nil {
			r.Own(payload)
		}
		return err
	}, opts)
}

// newServer is NewReplyServer with an explicit worker count, for tests that
// need one.
func newServer(comm *mpi.Comm, tag int, handler Handler, opts ServerOptions, workers int) *Server {
	s := &Server{
		comm:        comm,
		tag:         tag,
		handler:     handler,
		workers:     workers,
		served:      opts.Metrics.Counter("rpc.server.served"),
		notFound:    opts.Metrics.Counter("rpc.server.notfound"),
		errors:      opts.Metrics.Counter("rpc.server.errors"),
		inService:   opts.Metrics.Gauge("rpc.server.inservice"),
		serviceHist: opts.Metrics.Histogram("rpc.server.service.latency"),
	}
	s.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go s.worker()
	}
	return s
}

// Serve blocks until every worker has taken its pill or the world has
// aborted. The workers run from NewReplyServer on; Serve only waits for them.
func (s *Server) Serve() { s.wg.Wait() }

// worker answers requests until it takes a pill or the world aborts. A
// peer's frame shorter than the header, an empty one included, has no
// tag to answer on and is dropped.
func (s *Server) worker() {
	defer s.wg.Done()
	var reply Reply
	for {
		data, src, err := s.comm.Recv(mpi.AnySource, s.tag)
		if err != nil {
			return // world aborted or transport closed
		}
		if len(data) < 4 {
			if len(data) == 0 && src == s.comm.Rank() {
				return // pill from Stop
			}
			continue
		}
		s.inService.Inc()
		start := time.Now()
		s.answer(src, int(binary.LittleEndian.Uint32(data)), data[4:], &reply)
		decomp.PutBuf(data)
		s.serviceHist.Observe(time.Since(start))
		s.inService.Dec()
	}
}

// answer runs the handler and sends its parts (or the error text) and the
// status trailer, then recycles what the reply owns.
func (s *Server) answer(src, respTag int, req []byte, r *Reply) {
	err := s.handler(src, req, r)
	status := statusOK
	if err != nil {
		r.reset()
	}
	switch {
	case err == nil:
		s.served.Inc()
	case errors.Is(err, ErrNotFound):
		status = statusNotFound
		s.notFound.Inc()
	case errors.Is(err, ErrStale):
		// The text carries the handler's map version, if it put one there.
		status = statusStale
		r.Lend([]byte(err.Error()))
		s.errors.Inc()
	default:
		status = statusError
		r.Lend([]byte(err.Error()))
		s.errors.Inc()
	}
	r.Lend(statusTrailer[status])
	_ = s.comm.Sendv(src, respTag, r.parts...)
	r.reset() // the transport is done with every part once Sendv returns
}

// Stop sends every worker its pill and waits for the pool to exit.
// Requests queued ahead of the pills are answered first. It is safe to
// call after the world aborted: the pill sends fail, but the aborted
// mailbox has already stopped the workers.
func (s *Server) Stop() {
	for i := 0; i < s.workers; i++ {
		_ = s.comm.Send(s.comm.Rank(), s.tag, nil)
	}
	s.wg.Wait()
}

// ClientOptions configures per-call behaviour.
type ClientOptions struct {
	// Timeout bounds each attempt (0 means block until the reply).
	Timeout time.Duration
	// Retries is how many extra attempts follow a timed-out or
	// remote-errored attempt. Not-found, stale-map, and world-abort
	// errors are terminal and never retried.
	Retries int
	// Metrics is the registry the client's instruments live in
	// ("rpc.client.*"), the only way to read them. Nil: unregistered.
	Metrics *metrics.Registry
}

// respWindow is how many response tags a client cycles through. The
// request header carries the tag as a u32 and the server answers on what
// it read, so respBase + sequence must stay below 2^32 — past it the
// replies would land on tags 0, 1, ..., the protocol's own. A tag comes
// round again 2^30 attempts later, long after its earlier reply was
// received or discarded.
const respWindow = 1 << 30

// Client issues framed calls to Servers listening on tag. Each attempt
// takes the next response tag of [respBase, respBase+respWindow), so a
// reply that arrives after its deadline cannot satisfy a later call.
type Client struct {
	comm     *mpi.Comm
	tag      int
	respBase int
	opts     ClientOptions

	seq                      atomic.Int64
	calls, retries, timeouts *metrics.Counter
	attemptHist              *metrics.Histogram // per-attempt round-trip time
}

// NewClient builds a client for servers on tag. respBase is the first of
// the respWindow tags reserved for responses; the range must end below
// 2^32 and not collide with any other tag traffic on the communicator.
func NewClient(comm *mpi.Comm, tag, respBase int, opts ClientOptions) *Client {
	reg := opts.Metrics
	return &Client{
		comm: comm, tag: tag, respBase: respBase, opts: opts,
		calls:       reg.Counter("rpc.client.calls"),
		retries:     reg.Counter("rpc.client.retries"),
		timeouts:    reg.Counter("rpc.client.timeouts"),
		attemptHist: reg.Histogram("rpc.client.attempt.latency"),
	}
}

// Call sends req to dst and returns the response payload, retrying per
// the client options. The returned error wraps ErrNotFound, ErrRemote,
// or ErrTimeout so routing layers can decide whether to fail over.
//
// The payload is the received frame less its status trailer — same base
// pointer, same capacity — and the caller owns it: it may decomp.PutBuf
// it once, when no alias is live, or just drop it.
func (c *Client) Call(dst int, req []byte) ([]byte, error) {
	c.calls.Inc()
	var lastErr error
	for attempt := 0; attempt <= c.opts.Retries; attempt++ {
		if attempt > 0 {
			c.retries.Inc()
		}
		resp, err := c.attempt(dst, req)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if errors.Is(err, ErrNotFound) || errors.Is(err, ErrStale) || errors.Is(err, mpi.ErrAborted) {
			break // terminal: retrying the same peer cannot help
		}
	}
	return nil, lastErr
}

// attempt performs one framed round trip, observing its duration in the
// per-attempt latency histogram (success or failure — a timed-out
// attempt is exactly the sample a stall investigation needs).
func (c *Client) attempt(dst int, req []byte) ([]byte, error) {
	start := time.Now()
	defer metrics.ObserveSince(c.attemptHist, start)
	respTag := c.respBase + int(c.seq.Add(1)%respWindow)
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(respTag))
	if err := c.comm.Sendv(dst, c.tag, hdr[:], req); err != nil {
		return nil, fmt.Errorf("rpc: send to rank %d: %w", dst, err)
	}
	resp, _, err := c.comm.RecvDeadline(dst, respTag, c.opts.Timeout)
	if errors.Is(err, mpi.ErrTimeout) {
		// Nobody will receive on this tag again: have the late reply
		// dropped when it arrives instead of queued forever.
		c.comm.Discard(dst, respTag)
		c.timeouts.Inc()
		return nil, fmt.Errorf("%w: rank %d after %v", ErrTimeout, dst, c.opts.Timeout)
	}
	if err != nil {
		return nil, fmt.Errorf("rpc: recv from rank %d: %w", dst, err)
	}
	if len(resp) < 1 {
		return nil, fmt.Errorf("%w: rank %d sent an empty frame", ErrRemote, dst)
	}
	body := resp[:len(resp)-1]
	switch resp[len(body)] {
	case statusOK:
		return body, nil
	case statusNotFound:
		return nil, fmt.Errorf("%w: rank %d", ErrNotFound, dst)
	case statusStale:
		return nil, fmt.Errorf("%w: rank %d: %s", ErrStale, dst, body)
	default:
		return nil, fmt.Errorf("%w: rank %d: %s", ErrRemote, dst, body)
	}
}
