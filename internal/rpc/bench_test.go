package rpc

import (
	"fmt"
	"testing"

	"fanstore/internal/decomp"
	"fanstore/internal/mpi"
)

// BenchmarkRPCCall is one call with a 48-byte request and a response of
// the given size, over the in-process mailbox and over loopback TCP. The
// handler lends the payload, as the store's fetch handler lends a stored
// object, and the caller releases the response frame, as the store's open
// path does.
func BenchmarkRPCCall(b *testing.B) {
	for _, tr := range transports {
		for _, size := range []int{1 << 10, 128 << 10} {
			b.Run(fmt.Sprintf("%s/%dKiB", tr.name, size>>10), func(b *testing.B) {
				payload := make([]byte, size)
				req := make([]byte, 48)
				b.SetBytes(int64(size))
				b.ReportAllocs()
				err := tr.run(2, func(c *mpi.Comm) error {
					if c.Rank() == 1 {
						s := serveOn(c, func(_ int, _ []byte, r *Reply) error {
							r.Lend(payload)
							return nil
						}, ServerOptions{})
						err := c.Barrier()
						s.Stop()
						return err
					}
					cl := NewClient(c, 500, 1<<20, ClientOptions{})
					call := func() error {
						resp, err := cl.Call(1, req)
						if err == nil && len(resp) != size {
							err = fmt.Errorf("response of %d bytes", len(resp))
						}
						decomp.PutBuf(resp)
						return err
					}
					if err := call(); err != nil { // dial, fill the pool
						return err
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := call(); err != nil {
							return err
						}
					}
					b.StopTimer()
					return c.Barrier()
				})
				if err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}
