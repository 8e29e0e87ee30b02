package rpc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"fanstore/internal/mpi"
)

// Tags of the Stop test's own hand-offs, clear of the server's (500) and
// the client's response window.
const (
	tagGo    = 600
	tagReady = 601
	tagDone  = 602
)

// echo answers with the request itself, lent: it stays put until the
// reply is sent.
func echo(_ int, req []byte, r *Reply) error {
	r.Lend(req)
	return nil
}

// serverWorkers counts the goroutines running a Server worker.
func serverWorkers() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "rpc.(*Server).worker")
}

// TestServerStop: however Stop meets the server — idle, with handlers in
// flight, or racing the first request — every request queued ahead of
// it is answered, no worker survives it, and it leaves nothing queued:
// every pill was taken. The ranks hand off with point-to-point frames
// only, so no collective traffic sits in the mailbox when it is counted.
func TestServerStop(t *testing.T) {
	for _, tc := range []string{"idle", "in-flight", "racing-first-request"} {
		t.Run(tc, func(t *testing.T) {
			const inFlight = 2
			entered, release := make(chan struct{}, inFlight), make(chan struct{})
			err := mpi.Run(2, func(c *mpi.Comm) error {
				if c.Rank() == 0 {
					workersBefore, pendingBefore := serverWorkers(), c.Pending()
					s := newServer(c, 500, func(src int, req []byte, r *Reply) error {
						if tc == "in-flight" {
							entered <- struct{}{}
							<-release
						}
						return echo(src, req, r)
					}, ServerOptions{}, 3)
					if err := c.Send(1, tagGo, nil); err != nil {
						return err
					}
					switch tc {
					case "in-flight":
						for i := 0; i < inFlight; i++ {
							<-entered
						}
						stopped := make(chan struct{})
						go func() { s.Stop(); close(stopped) }()
						select {
						case <-stopped:
							return fmt.Errorf("Stop returned with %d handlers in flight", inFlight)
						case <-time.After(20 * time.Millisecond):
						}
						close(release)
						<-stopped
					case "racing-first-request":
						if _, _, err := c.Recv(1, tagReady); err != nil {
							return err
						}
						s.Stop()
					default:
						s.Stop()
					}
					for deadline := time.Now().Add(2 * time.Second); serverWorkers() > workersBefore; {
						if time.Now().After(deadline) {
							return fmt.Errorf("%d server workers outlived Stop", serverWorkers()-workersBefore)
						}
						time.Sleep(time.Millisecond)
					}
					if n := c.Pending(); n != pendingBefore {
						return fmt.Errorf("%d frames queued after Stop, %d before newServer", n, pendingBefore)
					}
					return c.Send(1, tagDone, nil)
				}
				if _, _, err := c.Recv(0, tagGo); err != nil {
					return err
				}
				switch tc {
				case "in-flight":
					cl := NewClient(c, 500, 1<<20, ClientOptions{Timeout: 5 * time.Second})
					errs := make(chan error, inFlight)
					for i := 0; i < inFlight; i++ {
						go func() {
							resp, err := cl.Call(0, []byte("ping"))
							if err == nil && string(resp) != "ping" {
								err = fmt.Errorf("resp %q", resp)
							}
							errs <- err
						}()
					}
					for i := 0; i < inFlight; i++ {
						if err := <-errs; err != nil {
							return err
						}
					}
				case "racing-first-request":
					// A raw request, so it is queued before the go-ahead
					// to stop is: Stop races its pickup, not its arrival.
					const respTag = 1 << 20
					if err := c.Sendv(0, 500, binary.LittleEndian.AppendUint32(nil, respTag), []byte("ping")); err != nil {
						return err
					}
					if err := c.Send(0, tagReady, nil); err != nil {
						return err
					}
					resp, _, err := c.RecvDeadline(0, respTag, 5*time.Second)
					if err != nil || string(resp) != "ping\x00" {
						return fmt.Errorf("request queued before Stop: %q, %v", resp, err)
					}
				}
				_, _, err := c.Recv(0, tagDone)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// FuzzFetchServerFrames: one raw frame from a peer on the server's tag,
// whatever its bytes — empty, shorter than the header, or a header naming
// any tag, the protocol's own included — does not stop the server. A
// frame with a header is answered on the tag it names, and a well-formed
// Call still succeeds after it.
func FuzzFetchServerFrames(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{1, 2})
	f.Add([]byte{1, 2, 3})
	f.Add(binary.LittleEndian.AppendUint32(nil, 500))
	f.Add(append(binary.LittleEndian.AppendUint32(nil, 1<<20+1), "req"...))
	f.Fuzz(func(t *testing.T, frame []byte) {
		err := mpi.Run(2, func(c *mpi.Comm) error {
			if c.Rank() == 0 {
				s := newServer(c, 500, echo, ServerOptions{}, 2)
				err := c.Barrier()
				s.Stop()
				return err
			}
			if err := c.Send(0, 500, frame); err != nil {
				return err
			}
			if len(frame) >= 4 {
				tag := int(binary.LittleEndian.Uint32(frame))
				resp, _, err := c.RecvDeadline(0, tag, 5*time.Second)
				if want := append(append([]byte(nil), frame[4:]...), statusOK); err != nil || !bytes.Equal(resp, want) {
					return fmt.Errorf("answer on tag %d: %q, %v; want %q", tag, resp, err, want)
				}
			}
			cl := NewClient(c, 500, 1<<20, ClientOptions{Timeout: 5 * time.Second})
			if resp, err := cl.Call(0, []byte("ping")); err != nil || string(resp) != "ping" {
				return fmt.Errorf("call after the frame: %q, %v", resp, err)
			}
			return c.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}
