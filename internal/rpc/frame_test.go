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
	handler := func(_ int, req []byte) ([]byte, error) {
		switch string(req) {
		case "ok-empty":
			return nil, nil
		case "ok-small":
			return []byte("x"), nil
		case "ok-big":
			return append(decomp.GetBuf(len(big)), big...), nil
		case "missing":
			return nil, ErrNotFound
		case "missing-text":
			return []byte("ignored"), fmt.Errorf("%w: no such object", ErrNotFound)
		case "stale":
			return nil, ErrStale
		case "stale-text":
			return nil, fmt.Errorf("%w: have v3, got v2", ErrStale)
		case "error-empty":
			return nil, errors.New("")
		}
		return nil, errors.New("spill read failed")
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
					{"error-text", ErrRemote, "spill read failed"},
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
					s := serveN(c, func(int, []byte) ([]byte, error) {
						time.Sleep(50 * time.Millisecond)
						return append(decomp.GetBuf(4000), make([]byte, 4000)...), nil
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
