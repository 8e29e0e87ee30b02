package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

func TestTCPSendRecv(t *testing.T) {
	err := RunTCP(4, func(c *Comm) error {
		msg := bytes.Repeat([]byte{byte(c.Rank())}, 1000)
		if err := c.Send(c.Neighbor(), 3, msg); err != nil {
			return err
		}
		data, src, err := c.Recv(AnySource, 3)
		if err != nil {
			return err
		}
		want := (c.Rank() + c.Size() - 1) % c.Size()
		if src != want || len(data) != 1000 || data[0] != byte(want) {
			return fmt.Errorf("rank %d: got %d bytes from %d", c.Rank(), len(data), src)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTCPCollectives(t *testing.T) {
	err := RunTCP(5, func(c *Comm) error {
		for round := 0; round < 10; round++ {
			parts, err := c.Allgather([]byte{byte(c.Rank()), byte(round)})
			if err != nil {
				return err
			}
			for r, p := range parts {
				if int(p[0]) != r || int(p[1]) != round {
					return fmt.Errorf("round %d part %d = %v", round, r, p)
				}
			}
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTCPOrderingPerPair(t *testing.T) {
	err := RunTCP(2, func(c *Comm) error {
		const n = 200
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				if err := c.Send(1, 9, []byte{byte(i), byte(i >> 8)}); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < n; i++ {
			data, _, err := c.Recv(0, 9)
			if err != nil {
				return err
			}
			if got := int(data[0]) | int(data[1])<<8; got != i {
				return fmt.Errorf("message %d arrived as %d", i, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTCPLargeMessages(t *testing.T) {
	err := RunTCP(2, func(c *Comm) error {
		payload := make([]byte, 4<<20)
		for i := range payload {
			payload[i] = byte(i * 31)
		}
		if c.Rank() == 0 {
			return c.Send(1, 1, payload)
		}
		data, _, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		if !bytes.Equal(data, payload) {
			return errors.New("large payload corrupted in flight")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTCPAbort(t *testing.T) {
	sentinel := errors.New("boom")
	err := RunTCP(2, func(c *Comm) error {
		if c.Rank() == 1 {
			return sentinel
		}
		_, _, err := c.Recv(1, 4) // must unblock on abort
		if !errors.Is(err, ErrAborted) {
			return fmt.Errorf("want ErrAborted, got %v", err)
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("Run error = %v", err)
	}
}

// TestTCPFanStoreWorkload drives the fetch-protocol shape (concurrent
// daemon + requesters with per-request response tags) over sockets.
func TestTCPFanStoreWorkload(t *testing.T) {
	err := RunTCP(3, func(c *Comm) error {
		if c.Rank() == 0 { // daemon
			for served := 0; served < 10; {
				req, src, err := c.Recv(AnySource, 100)
				if err != nil {
					return err
				}
				respTag := int(req[0]) + 200
				if err := c.Send(src, respTag, append(req[1:], 0xAB)); err != nil {
					return err
				}
				served++
			}
			return c.Barrier()
		}
		for i := 0; i < 5; i++ {
			req := []byte{byte(i), byte(c.Rank())}
			if err := c.Send(0, 100, req); err != nil {
				return err
			}
			resp, _, err := c.Recv(0, 200+i)
			if err != nil {
				return err
			}
			if len(resp) != 2 || resp[0] != byte(c.Rank()) || resp[1] != 0xAB {
				return fmt.Errorf("bad response %v", resp)
			}
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}
