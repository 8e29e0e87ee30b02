package mpi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
)

// bothTransports runs f as a 2-rank world over the in-process mailbox
// and over loopback TCP.
func bothTransports(t *testing.T, f func(c *Comm) error) {
	t.Helper()
	for _, tr := range []struct {
		name string
		run  func(int, func(*Comm) error) error
	}{{"inproc", Run}, {"tcp", RunTCP}} {
		t.Run(tr.name, func(t *testing.T) {
			if err := tr.run(2, f); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSendvParts(t *testing.T) {
	big := bytes.Repeat([]byte("0123456789abcdef"), 9000) // pooled on receive
	cases := []struct {
		parts [][]byte
		want  []byte
	}{
		{nil, nil},
		{[][]byte{nil}, nil},
		{[][]byte{nil, {}, nil}, nil},
		{[][]byte{[]byte("he"), nil, {}, []byte("llo")}, []byte("hello")},
		{[][]byte{{1, 2, 3, 4}, big, {0}}, append(append([]byte{1, 2, 3, 4}, big...), 0)},
	}
	bothTransports(t, func(c *Comm) error {
		if c.Rank() == 0 {
			for _, tc := range cases {
				if err := c.Sendv(1, 7, tc.parts...); err != nil {
					return err
				}
			}
			// The shutdown pill of internal/rpc: Send of nil.
			return c.Send(1, 7, nil)
		}
		for i, tc := range cases {
			got, src, err := c.Recv(0, 7)
			if err != nil {
				return err
			}
			if src != 0 || !bytes.Equal(got, tc.want) {
				return fmt.Errorf("case %d: %d bytes from %d, want %d", i, len(got), src, len(tc.want))
			}
		}
		if pill, _, err := c.Recv(0, 7); err != nil || len(pill) != 0 {
			return fmt.Errorf("pill: %d bytes, %v", len(pill), err)
		}
		if n := c.Pending(); n != 0 {
			return fmt.Errorf("%d messages left queued", n)
		}
		return nil
	})
}

// Eight goroutines of one rank send two-part messages to one destination,
// each on its own tag: every frame arrives whole and each tag's arrive in
// the order they were sent.
func TestSendvConcurrentSendersKeepOrder(t *testing.T) {
	const senders, msgs = 8, 100
	bothTransports(t, func(c *Comm) error {
		if c.Rank() == 0 {
			var wg sync.WaitGroup
			errs := make([]error, senders)
			for g := 0; g < senders; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < msgs && errs[g] == nil; i++ {
						var seq [4]byte
						binary.LittleEndian.PutUint32(seq[:], uint32(i))
						body := bytes.Repeat([]byte{byte(g)}, 1+(i*131)%3000)
						errs[g] = c.Sendv(1, 10+g, seq[:], body)
					}
				}(g)
			}
			wg.Wait()
			return errors.Join(errs...)
		}
		for g := 0; g < senders; g++ {
			for i := 0; i < msgs; i++ {
				data, _, err := c.Recv(0, 10+g)
				if err != nil {
					return err
				}
				want := bytes.Repeat([]byte{byte(g)}, 1+(i*131)%3000)
				if len(data) < 4 || int(binary.LittleEndian.Uint32(data)) != i || !bytes.Equal(data[4:], want) {
					return fmt.Errorf("tag %d message %d: a torn or reordered frame of %d bytes", 10+g, i, len(data))
				}
			}
		}
		return nil
	})
}

// pipeWorld is a 2-rank world whose rank 0 reaches rank 1 through the
// TCP transport over a net.Pipe: no writev, so net.Buffers writes part by
// part, and every write blocks until the reader takes it.
func pipeWorld(t *testing.T) (sender, receiver *Comm) {
	t.Helper()
	w, err := newWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	a, b := net.Pipe()
	tr := &tcpTransport{w: w, conns: map[int]*tcpConn{0*2 + 1: {c: a}}}
	w.trans = tr
	tr.done.Add(1)
	go func() {
		defer tr.done.Done()
		tr.reader(1, b)
	}()
	t.Cleanup(func() {
		w.abort()
		tr.close()
	})
	return &Comm{world: w, rank: 0}, &Comm{world: w, rank: 1}
}

func TestSendvWithoutWritev(t *testing.T) {
	tx, rx := pipeWorld(t)
	const senders, msgs = 4, 20
	var wg sync.WaitGroup
	errs := make([]error, senders)
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			body := bytes.Repeat([]byte{byte(g)}, 70000)
			for i := 0; i < msgs && errs[g] == nil; i++ {
				errs[g] = tx.Sendv(1, g, []byte{byte(i)}, body, nil, []byte{0xEE})
			}
		}(g)
	}
	for g := 0; g < senders; g++ {
		for i := 0; i < msgs; i++ {
			data, _, err := rx.Recv(0, g)
			if err != nil {
				t.Fatal(err)
			}
			if len(data) != 70002 || data[0] != byte(i) || data[70001] != 0xEE ||
				!bytes.Equal(data[1:70001], bytes.Repeat([]byte{byte(g)}, 70000)) {
				t.Fatalf("tag %d message %d: torn frame of %d bytes", g, i, len(data))
			}
		}
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
}

func TestSendFrameTooLarge(t *testing.T) {
	// 1025 views of one MiB: over the limit without allocating it.
	mib := make([]byte, 1<<20)
	parts := make([][]byte, maxFrame>>20+1)
	for i := range parts {
		parts[i] = mib
	}
	bothTransports(t, func(c *Comm) error {
		if c.Rank() == 1 {
			data, _, err := c.Recv(0, 3)
			if err != nil || string(data) != "after" {
				return fmt.Errorf("got %q, %v", data, err)
			}
			if n := c.Pending(); n != 0 {
				return fmt.Errorf("%d messages queued: the oversized send wrote something", n)
			}
			return nil
		}
		if err := c.Sendv(1, 3, parts...); !errors.Is(err, ErrFrameTooLarge) {
			return fmt.Errorf("want ErrFrameTooLarge, got %v", err)
		}
		// Nothing was written: the stream is still in step.
		return c.Send(1, 3, []byte("after"))
	})
}

func TestDiscard(t *testing.T) {
	bothTransports(t, func(c *Comm) error {
		if c.Rank() == 1 {
			for _, tag := range []int{20, 21, 21} {
				if _, _, err := c.Recv(0, 30); err != nil { // rank 0 is ready
					return err
				}
				if err := c.Send(0, tag, bytes.Repeat([]byte{byte(tag)}, 2000)); err != nil {
					return err
				}
				if err := c.Send(0, 31, nil); err != nil { // sent, in this order
					return err
				}
			}
			return nil
		}
		step := func() error {
			if err := c.Send(1, 30, nil); err != nil {
				return err
			}
			_, _, err := c.Recv(1, 31)
			return err
		}
		// Already queued: dropped now.
		if err := step(); err != nil {
			return err
		}
		if n := c.Pending(); n != 1 {
			return fmt.Errorf("pending %d before Discard, want 1", n)
		}
		c.Discard(1, 20)
		if n := c.Pending(); n != 0 {
			return fmt.Errorf("pending %d after Discard of a queued message", n)
		}
		// Not here yet: dropped on arrival, and only that one.
		c.Discard(1, 21)
		if err := step(); err != nil {
			return err
		}
		if n := c.Pending(); n != 0 {
			return fmt.Errorf("pending %d: the late message was queued", n)
		}
		if err := step(); err != nil {
			return err
		}
		data, _, err := c.Recv(1, 21)
		if err != nil || len(data) != 2000 || data[0] != 21 {
			return fmt.Errorf("the message after the discarded one: %d bytes, %v", len(data), err)
		}
		return nil
	})
}
