package mpi

import (
	"fmt"
	"testing"

	"fanstore/internal/decomp"
)

// BenchmarkMailboxPop is one push and the pop that matches it, behind a
// backlog of queued messages on other tags — the cost curve of the
// mailbox's linear scan in the number of outstanding messages.
func BenchmarkMailboxPop(b *testing.B) {
	for _, outstanding := range []int{1, 256, 4096} {
		b.Run(fmt.Sprintf("outstanding=%d", outstanding), func(b *testing.B) {
			mb := newMailbox()
			for tag := 1; tag < outstanding; tag++ {
				if err := mb.push(message{src: 1, tag: tag}); err != nil {
					b.Fatal(err)
				}
			}
			payload := make([]byte, 64)
			b.SetBytes(int64(len(payload)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := mb.push(message{src: 1, tag: outstanding, data: payload}); err != nil {
					b.Fatal(err)
				}
				if _, err := mb.pop(1, outstanding); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTCPSendRecv is one message of the given size over loopback
// TCP and a one-byte acknowledgement back; the receiver releases each
// frame to the pool, as the store's data path does.
func BenchmarkTCPSendRecv(b *testing.B) {
	for _, size := range []int{1 << 10, 128 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("%dKiB", size>>10), func(b *testing.B) {
			payload := make([]byte, size)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			err := RunTCP(2, func(c *Comm) error {
				if c.Rank() == 1 {
					for {
						data, _, err := c.Recv(0, 1)
						if err != nil || len(data) == 0 {
							return err
						}
						decomp.PutBuf(data)
						if err := c.Send(0, 2, []byte{1}); err != nil {
							return err
						}
					}
				}
				roundTrip := func() error {
					if err := c.Send(1, 1, payload); err != nil {
						return err
					}
					_, _, err := c.Recv(1, 2)
					return err
				}
				if err := roundTrip(); err != nil { // dial both directions, fill the pool
					return err
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := roundTrip(); err != nil {
						return err
					}
				}
				b.StopTimer()
				return c.Send(1, 1, nil)
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
