package rpc

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"fanstore/internal/decomp"
	"fanstore/internal/metrics"
	"fanstore/internal/mpi"
)

// transports are the two worlds every wire-level test runs over.
var transports = []struct {
	name string
	run  func(int, func(*mpi.Comm) error) error
}{{"inproc", mpi.Run}, {"tcp", mpi.RunTCP}}

// TestStatusTrailerRoundTrip pins the response layout, payload | u8
// status: every status with an empty and a non-empty body, and that an OK
// payload starts at the base of the received frame with the trailer right
// behind it — what lets the caller recycle it.
func TestStatusTrailerRoundTrip(t *testing.T) {
	big := bytes.Repeat([]byte("fanstore"), 1000) // pooled on both sides
	handler := func(_ int, req []byte, r *Reply) error {
		switch string(req) {
		case "ok-empty":
			return nil
		case "ok-small":
			r.Lend([]byte("x"))
			return nil
		case "ok-big":
			r.Own(append(decomp.GetBuf(len(big)), big...))
			return nil
		case "missing":
			return ErrNotFound
		case "missing-text":
			r.Lend([]byte("ignored"))
			return fmt.Errorf("%w: no such object", ErrNotFound)
		case "stale":
			return ErrStale
		case "stale-text":
			return fmt.Errorf("%w: have v3, got v2", ErrStale)
		case "error-empty":
			return errors.New("")
		}
		return errors.New("backend read failed")
	}
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			err := tr.run(2, func(c *mpi.Comm) error {
				if c.Rank() == 1 {
					s := serveOn(c, handler, ServerOptions{})
					err := c.Barrier()
					s.Stop()
					return err
				}
				cl := NewClient(c, 500, 1<<20, ClientOptions{})
				for _, tc := range []struct {
					req  string
					want []byte
				}{{"ok-empty", nil}, {"ok-small", []byte("x")}, {"ok-big", big}} {
					resp, err := cl.Call(1, []byte(tc.req))
					if err != nil || !bytes.Equal(resp, tc.want) {
						return fmt.Errorf("%s: %d bytes, %v", tc.req, len(resp), err)
					}
					if cap(resp) <= len(resp) || resp[:len(resp)+1][len(resp)] != statusOK {
						return fmt.Errorf("%s: no status trailer behind the payload", tc.req)
					}
					if len(resp) >= decomp.MinBuf && cap(resp)&(cap(resp)-1) != 0 {
						return fmt.Errorf("%s: capacity %d: the payload does not start at the frame's base", tc.req, cap(resp))
					}
					decomp.PutBuf(resp) // the caller's right; must not disturb later calls
				}
				for _, tc := range []struct {
					req  string
					want error
					text string
				}{
					{"missing", ErrNotFound, ""},
					{"missing-text", ErrNotFound, ""},
					{"stale", ErrStale, "stale cluster map"},
					{"stale-text", ErrStale, "have v3, got v2"},
					{"error-empty", ErrRemote, ""},
					{"error-text", ErrRemote, "backend read failed"},
				} {
					resp, err := cl.Call(1, []byte(tc.req))
					if resp != nil || !errors.Is(err, tc.want) || !strings.Contains(err.Error(), tc.text) {
						return fmt.Errorf("%s: %q, %v", tc.req, resp, err)
					}
				}
				return c.Barrier()
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLateRepliesAreReaped: a reply that arrives after its attempt timed
// out must not stay queued. Every attempt has a tag of its own, so nothing
// would ever receive it: each timed-out fetch used to leak its whole
// reply.
func TestLateRepliesAreReaped(t *testing.T) {
	const calls = 8
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			err := tr.run(2, func(c *mpi.Comm) error {
				if c.Rank() == 1 {
					reg := metrics.NewRegistry()
					s := serveN(c, func(_ int, _ []byte, r *Reply) error {
						time.Sleep(50 * time.Millisecond)
						r.Own(append(decomp.GetBuf(4000), make([]byte, 4000)...))
						return nil
					}, ServerOptions{Metrics: reg}, calls)
					if err := c.Barrier(); err != nil {
						return err
					}
					s.Stop() // every handler has returned and replied
					if n := read(t, reg).counter("rpc.server.served"); n != calls {
						return fmt.Errorf("server served %d, want %d", n, calls)
					}
					// This rank's side of the barrier travels behind the
					// replies, so rank 0 leaves it with all of them delivered.
					return c.Barrier()
				}
				cl := NewClient(c, 500, 1<<20, ClientOptions{Timeout: 5 * time.Millisecond})
				for i := 0; i < calls; i++ {
					if _, err := cl.Call(1, []byte("slow")); !errors.Is(err, ErrTimeout) {
						return fmt.Errorf("call %d: %v", i, err)
					}
				}
				if err := c.Barrier(); err != nil {
					return err
				}
				if err := c.Barrier(); err != nil {
					return err
				}
				if n := c.Pending(); n != 0 {
					return fmt.Errorf("%d late replies still queued in the client's mailbox", n)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > baseline {
				t.Fatalf("%d goroutines left running, %d before the world started", n, baseline)
			}
		})
	}
}

// TestReplyOwnedAndLentParts: a reply mixing owned and lent parts — two
// owned pool buffers, each with a lent slice of itself, then a lent
// buffer and the request — reaches the caller as their concatenation over
// both transports. Every other call fails after filling its reply the same
// way, and the caller gets the error text alone. The server recycles only
// what a reply owns, on both paths: the handler's GetBuf hands buffers of
// earlier replies back, of failed ones too, and never the lent one, which
// is of the same size class and whose bytes stay as they were.
func TestReplyOwnedAndLentParts(t *testing.T) {
	const calls, head = 32, 600 // GetBuf(head) and the lent part share a class
	seq := make([]byte, head)
	for i := range seq {
		seq[i] = byte(i)
	}
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			lent := make([]byte, 900, 2*decomp.MinBuf)
			for i := range lent {
				lent[i] = byte(i * 7)
			}
			orig := append([]byte(nil), lent...)
			// owned maps each buffer a reply owned to whether that reply
			// failed; reused counts GetBufs that returned one, by that flag.
			owned, reused := make(map[*byte]bool), [2]int{}
			handler := func(_ int, req []byte, r *Reply) error {
				fail := bytes.HasPrefix(req, []byte("fail"))
				for k := 0; k < 2; k++ {
					b := decomp.GetBuf(head)
					p := &b[:1][0]
					if p == &lent[0] {
						return errors.New("GetBuf handed out the lent part")
					}
					if failed, ok := owned[p]; ok {
						reused[btoi(failed)]++
					}
					owned[p] = fail
					b = append(b, seq...)
					r.Own(b[:head/2])
					r.Lend(b[head/2:])
				}
				r.Lend(lent)
				r.Lend(req)
				if fail {
					return fmt.Errorf("refused %s", req)
				}
				return nil
			}
			err := tr.run(2, func(c *mpi.Comm) error {
				if c.Rank() == 1 {
					s := serveN(c, handler, ServerOptions{}, 1)
					err := c.Barrier()
					s.Stop()
					if err == nil && (reused[0] == 0 || reused[1] == 0) {
						err = fmt.Errorf("%d replies, and GetBuf handed back %d buffers of served replies and %d of failed ones, want both > 0", calls, reused[0], reused[1])
					}
					return err
				}
				cl := NewClient(c, 500, 1<<20, ClientOptions{Timeout: 5 * time.Second})
				for i := 0; i < calls; i++ {
					if i%2 == 1 {
						req := fmt.Sprintf("fail %02d", i)
						_, err := cl.Call(1, []byte(req))
						if want := fmt.Sprintf("%v: rank 1: refused %s", ErrRemote, req); err == nil || err.Error() != want {
							return fmt.Errorf("call %d: %v, want the remote error naming %q alone", i, err, req)
						}
					} else {
						req := []byte(fmt.Sprintf("call %02d", i))
						want := append(append(append(append([]byte(nil), seq...), seq...), lent...), req...)
						resp, err := cl.Call(1, req)
						if err != nil || !bytes.Equal(resp, want) {
							return fmt.Errorf("call %d: %d bytes, %v", i, len(resp), err)
						}
					}
					if !bytes.Equal(lent, orig) {
						return fmt.Errorf("call %d: the lent part changed", i)
					}
				}
				return c.Barrier()
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
