package fanstore

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// BenchmarkCacheAcquireRelease is the shard-contention storm: G
// goroutines hammering Acquire+Release over a resident working set, on a
// single-lock cache (shards=1, the pre-sharding layout) versus a striped
// one. The shards=16 rows should pull ahead as goroutines grow; on one
// core the comparison degenerates to lock-overhead-only, so the headline
// gap needs a multi-core run.
func BenchmarkCacheAcquireRelease(b *testing.B) {
	const nPaths = 256
	paths := make([]uint32, nPaths)
	for i := range paths {
		paths[i] = oid(fmt.Sprintf("file-%04d", i))
	}
	for _, shards := range []int{1, 16} {
		for _, gs := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("shards=%d/goroutines=%d", shards, gs), func(b *testing.B) {
				c := newStripedCache(nPaths*1024, FIFO, shards)
				for _, p := range paths {
					c.Insert(p, make([]byte, 1024), false)
					c.Release(p)
				}
				var next atomic.Int64
				b.ResetTimer()
				var wg sync.WaitGroup
				for g := 0; g < gs; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						for {
							i := next.Add(1) - 1
							if i >= int64(b.N) {
								return
							}
							p := paths[(int64(g)*37+i)%nPaths]
							if _, ok := c.Acquire(p); ok {
								c.Release(p)
							}
						}
					}(g)
				}
				wg.Wait()
				b.StopTimer()
				if st := c.Stats(); st.Pinned != 0 {
					b.Fatalf("pin leak: %d", st.Pinned)
				}
			})
		}
	}
}
