package fanstore

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fanstore/internal/dataset"
	"fanstore/internal/mpi"
	"fanstore/internal/pack"
)

// latencyBackend models storage with a fixed per-read access latency
// (a cold read on a busy disk), the regime the daemon worker pool
// is designed for: while one handler waits on storage, others proceed.
type latencyBackend struct {
	Backend
	delay time.Duration
}

func (l *latencyBackend) Get(path string) (uint16, []byte, error) {
	time.Sleep(l.delay)
	return l.Backend.Get(path)
}

func (l *latencyBackend) Peek(path string) (uint16, []byte, bool) {
	return 0, nil, false // force every fetch through Get
}

// BenchmarkConcurrentRemoteFetch measures aggregate remote-fetch
// throughput with 8 concurrent openers against one peer daemon, with the
// cache disabled so every open is a full fetch from the peer's mapped
// partition, each Get paying a fixed storage latency. The daemon runs its default worker pool (GOMAXPROCS, floored
// at 4), so handlers overlap their storage waits; a one-worker daemon,
// measured once against it, took about eight times as long per file
// (EXPERIMENTS.md, "Comparison-only settings verdict").
func BenchmarkConcurrentRemoteFetch(b *testing.B) {
	const nFiles, fileSize, openers = 16, 32 << 10, 8
	const readLatency = 100 * time.Microsecond
	bundle, _ := buildBundle(b, dataset.EM, nFiles, 2, fileSize, nil)
	owned, err := pack.Parse(bundle.Scatter[1])
	if err != nil {
		b.Fatal(err)
	}
	paths := make([]string, len(owned.Entries))
	for i := range owned.Entries {
		paths[i] = owned.Entries[i].Path
	}
	parts := [][]byte{bundle.Scatter[0], mappedBlob(b, bundle.Scatter[1])}
	err = mpi.Run(2, func(c *mpi.Comm) error {
		opts := Options{CachePolicy: Immediate}
		if c.Rank() == 1 {
			opts.Backend = &latencyBackend{Backend: NewRAMBackend(), delay: readLatency}
		}
		node, err := Mount(c, [][]byte{parts[c.Rank()]}, nil, opts)
		if err != nil {
			return err
		}
		defer node.Close()
		if c.Rank() != 0 {
			return nil // serve until rank 0's Close barrier
		}
		b.ResetTimer()
		var next atomic.Int64
		var wg sync.WaitGroup
		errCh := make(chan error, openers)
		for g := 0; g < openers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := next.Add(1) - 1
					if i >= int64(b.N) {
						return
					}
					if _, err := node.ReadFile(paths[int(i)%len(paths)]); err != nil {
						errCh <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		b.StopTimer()
		close(errCh)
		for err := range errCh {
			return err
		}
		b.SetBytes(int64(fileSize))
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
