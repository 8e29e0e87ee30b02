package rpc

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fanstore/internal/metrics"
	"fanstore/internal/mpi"
)

// serveOn starts a server on rank with the handler and returns it; the
// caller stops it after the closing barrier.
func serveOn(c *mpi.Comm, h Handler, opts ServerOptions) *Server {
	s := NewServer(c, 500, h, opts)
	go s.Serve()
	return s
}

// serveN is serveOn with workers handlers.
func serveN(c *mpi.Comm, h Handler, opts ServerOptions, workers int) *Server {
	s := newServer(c, 500, h, opts, workers)
	go s.Serve()
	return s
}

func TestCallBasic(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) error {
		reg := metrics.NewRegistry()
		if c.Rank() == 1 {
			s := serveOn(c, func(src int, req []byte) ([]byte, error) {
				return append(bytes.ToUpper(req), byte('0'+src)), nil
			}, ServerOptions{Metrics: reg})
			if err := c.Barrier(); err != nil {
				return err
			}
			s.Stop()
			st := read(t, reg)
			if st.counter("rpc.server.served") != 3 || st.gauge("rpc.server.inservice").Value != 0 {
				return fmt.Errorf("server stats %s", st.snap.Text())
			}
			if n := st.hist("rpc.server.service.latency").Count; n != 3 {
				return fmt.Errorf("service histogram count %d", n)
			}
			return nil
		}
		cl := NewClient(c, 500, 1<<20, ClientOptions{Metrics: reg})
		for i := 0; i < 3; i++ {
			resp, err := cl.Call(1, []byte("ping"))
			if err != nil {
				return err
			}
			if string(resp) != "PING0" {
				return fmt.Errorf("resp %q", resp)
			}
		}
		if st := read(t, reg); st.counter("rpc.client.calls") != 3 || st.counter("rpc.client.retries") != 0 {
			return fmt.Errorf("client stats %s", st.snap.Text())
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNotFoundAndRemoteError(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) error {
		if c.Rank() == 1 {
			reg := metrics.NewRegistry()
			s := serveOn(c, func(_ int, req []byte) ([]byte, error) {
				switch string(req) {
				case "missing":
					return nil, fmt.Errorf("%w: nope", ErrNotFound)
				case "boom":
					return nil, errors.New("handler exploded")
				}
				return append([]byte(nil), req...), nil
			}, ServerOptions{Metrics: reg})
			if err := c.Barrier(); err != nil {
				return err
			}
			s.Stop()
			if st := read(t, reg); st.counter("rpc.server.notfound") != 1 || st.counter("rpc.server.errors") != 1 || st.counter("rpc.server.served") != 1 {
				return fmt.Errorf("server stats %s", st.snap.Text())
			}
			return nil
		}
		cl := NewClient(c, 500, 1<<20, ClientOptions{})
		if _, err := cl.Call(1, []byte("missing")); !errors.Is(err, ErrNotFound) {
			return fmt.Errorf("missing: %v", err)
		}
		if _, err := cl.Call(1, []byte("boom")); !errors.Is(err, ErrRemote) ||
			!strings.Contains(err.Error(), "handler exploded") {
			return fmt.Errorf("boom: %v", err)
		}
		if resp, err := cl.Call(1, []byte("ok")); err != nil || string(resp) != "ok" {
			return fmt.Errorf("ok: %q %v", resp, err)
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestStaleStatus checks a handler returning ErrStale surfaces as a
// terminal (non-retried) ErrStale on the caller, carrying the text.
func TestStaleStatus(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) error {
		if c.Rank() == 1 {
			var calls atomic.Int32
			s := serveOn(c, func(_ int, _ []byte) ([]byte, error) {
				calls.Add(1)
				return nil, fmt.Errorf("%w: have v3, got v2", ErrStale)
			}, ServerOptions{})
			if err := c.Barrier(); err != nil {
				return err
			}
			s.Stop()
			if n := calls.Load(); n != 1 {
				return fmt.Errorf("stale call retried: %d handler invocations", n)
			}
			return nil
		}
		reg := metrics.NewRegistry()
		cl := NewClient(c, 500, 1<<20, ClientOptions{Retries: 3, Metrics: reg})
		_, err := cl.Call(1, []byte("read"))
		if !errors.Is(err, ErrStale) || !strings.Contains(err.Error(), "have v3") {
			return fmt.Errorf("stale: %v", err)
		}
		if n := read(t, reg).counter("rpc.client.retries"); n != 0 {
			return fmt.Errorf("stale call retried %d times", n)
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCallDeadline(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) error {
		release := make(chan struct{})
		if c.Rank() == 1 {
			s := serveN(c, func(_ int, req []byte) ([]byte, error) {
				if string(req) == "slow" {
					<-release
				}
				return append([]byte(nil), req...), nil
			}, ServerOptions{}, 2)
			if err := c.Barrier(); err != nil {
				return err
			}
			close(release)
			if err := c.Barrier(); err != nil {
				return err
			}
			s.Stop()
			return nil
		}
		reg := metrics.NewRegistry()
		cl := NewClient(c, 500, 1<<20, ClientOptions{Timeout: 50 * time.Millisecond, Metrics: reg})
		if _, err := cl.Call(1, []byte("slow")); !errors.Is(err, ErrTimeout) {
			return fmt.Errorf("slow call: %v", err)
		}
		if n := read(t, reg).counter("rpc.client.timeouts"); n != 1 {
			return fmt.Errorf("client counted %d timeouts, want 1", n)
		}
		// A fast call on the same client still works: the stale reply
		// cannot be mismatched because response tags are never reused.
		if resp, err := cl.Call(1, []byte("fast")); err != nil || string(resp) != "fast" {
			return fmt.Errorf("fast call: %q %v", resp, err)
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRetryUntilServed: a remote error is retried, at once, up to
// Retries times; both sides count what happened.
func TestRetryUntilServed(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) error {
		reg := metrics.NewRegistry()
		if c.Rank() == 1 {
			var fails atomic.Int32
			s := serveOn(c, func(_ int, req []byte) ([]byte, error) {
				if fails.Add(1) <= 2 {
					return nil, errors.New("transient")
				}
				return append([]byte(nil), req...), nil
			}, ServerOptions{Metrics: reg})
			if err := c.Barrier(); err != nil {
				return err
			}
			s.Stop()
			if st := read(t, reg); st.counter("rpc.server.errors") != 2 || st.counter("rpc.server.served") != 1 {
				return fmt.Errorf("server stats %s", st.snap.Text())
			}
			return nil
		}
		cl := NewClient(c, 500, 1<<20, ClientOptions{Retries: 3, Metrics: reg})
		resp, err := cl.Call(1, []byte("eventually"))
		if err != nil || string(resp) != "eventually" {
			return fmt.Errorf("call: %q %v", resp, err)
		}
		if n := read(t, reg).counter("rpc.client.retries"); n != 2 {
			return fmt.Errorf("client counted %d retries, want 2", n)
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWorkerPoolStress hammers one server from three ranks' concurrent
// callers and checks the pool really runs handlers concurrently (run
// with -race in CI).
func TestWorkerPoolStress(t *testing.T) {
	const ranks, goroutines, calls = 4, 8, 10
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			reg := metrics.NewRegistry()
			s := serveN(c, func(_ int, req []byte) ([]byte, error) {
				time.Sleep(time.Millisecond) // give requests time to pile up
				return append([]byte(nil), req...), nil
			}, ServerOptions{Metrics: reg}, goroutines)
			if err := c.Barrier(); err != nil {
				return err
			}
			s.Stop()
			st := read(t, reg)
			want := int64((ranks - 1) * goroutines * calls)
			if got := st.counter("rpc.server.served"); got != want {
				return fmt.Errorf("served %d, want %d", got, want)
			}
			if peak := st.gauge("rpc.server.inservice").Max; peak <= 1 {
				return fmt.Errorf("pool never ran concurrently: peak in-service %d", peak)
			}
			return nil
		}
		cl := NewClient(c, 500, 1<<20, ClientOptions{})
		var wg sync.WaitGroup
		errCh := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < calls; i++ {
					req := []byte(fmt.Sprintf("r%d-g%d-i%d", c.Rank(), g, i))
					resp, err := cl.Call(0, req)
					if err != nil {
						errCh <- err
						return
					}
					if !bytes.Equal(resp, req) {
						errCh <- fmt.Errorf("resp %q for %q", resp, req)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			return err
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestServerStopOnAbortedWorld checks Stop does not hang after the world
// shut down underneath the server.
func TestServerStopOnAbortedWorld(t *testing.T) {
	boom := errors.New("boom")
	var s *Server
	err := mpi.Run(2, func(c *mpi.Comm) error {
		if c.Rank() == 1 {
			s = serveOn(c, func(_ int, req []byte) ([]byte, error) { return append([]byte(nil), req...), nil }, ServerOptions{})
			return boom // aborts the world with the server running
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("world error: %v", err)
	}
	done := make(chan struct{})
	go func() { s.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop hung after world abort")
	}
}

// TestResponseTagsStayInTheirWindow: the request header carries the
// response tag as a u32. A client whose sequence ran on past it waited on
// respBase+seq while the server answered on the truncated value — tags 0,
// 1, ..., the protocol's own — so every call hung or timed out. Calls
// across both edges (the window's, and the one the u32 used to impose)
// must all return.
func TestResponseTagsStayInTheirWindow(t *testing.T) {
	const respBase = 1 << 20
	err := mpi.Run(2, func(c *mpi.Comm) error {
		if c.Rank() == 1 {
			s := serveOn(c, func(_ int, req []byte) ([]byte, error) {
				return append([]byte(nil), req...), nil
			}, ServerOptions{})
			if err := c.Barrier(); err != nil {
				return err
			}
			s.Stop()
			return nil
		}
		cl := NewClient(c, 500, respBase, ClientOptions{Timeout: 2 * time.Second})
		for _, edge := range []int64{respWindow, 1<<32 - respBase} {
			cl.seq.Store(edge - 3)
			for i := 0; i < 6; i++ {
				resp, err := cl.Call(1, []byte("ping"))
				if err != nil || string(resp) != "ping" {
					return fmt.Errorf("call %d across sequence %d: %q, %v", i, edge, resp, err)
				}
			}
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}
