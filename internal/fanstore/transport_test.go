package fanstore

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"fanstore/internal/mpi"
	"fanstore/internal/pack"
)

// storeBundle packs n files of random bytes, raw ("store"), over two
// partitions: file i has sizeOf(i) bytes and no two files share content.
func storeBundle(t testing.TB, n int, sizeOf func(i int) int) (*pack.Bundle, map[string][]byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(15))
	files := make([]pack.InputFile, n)
	want := make(map[string][]byte, n)
	for i := range files {
		data := make([]byte, sizeOf(i))
		rng.Read(data)
		files[i] = pack.InputFile{Path: fmt.Sprintf("raw/f%05d.bin", i), Data: data}
		want[files[i].Path] = data
	}
	bundle, err := pack.Build(files, pack.BuildOptions{Partitions: 2, Compressor: "store"})
	if err != nil {
		t.Fatal(err)
	}
	return bundle, want
}

// TestRemoteOpenAllocBudget pins what the transport rebuild bought: a
// cold remote open of a 128 KiB raw object, cycling over eight times the
// cache so every open is one rpc round trip, allocates a few hundred
// bytes in steady state — the frame, the response and the decode output
// all come from the pool and go back to it. With a frame built on each
// side and a fresh buffer per received message it was about 280 KiB.
func TestRemoteOpenAllocBudget(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race detector drops sync.Pool puts at random")
	}
	const size, budget = 128 << 10, 4 << 10
	bundle, want := storeBundle(t, 128, func(int) int { return size })
	remote := ownedPaths(t, bundle.Scatter[1]) // 64 files, 8 MiB
	for _, tr := range []struct {
		name string
		run  func(int, func(*mpi.Comm) error) error
	}{{"inproc", mpi.Run}, {"tcp", mpi.RunTCP}} {
		t.Run(tr.name, func(t *testing.T) {
			err := tr.run(2, func(c *mpi.Comm) error {
				node, err := Mount(c, [][]byte{bundle.Scatter[c.Rank()]}, nil,
					Options{CacheBytes: int64(len(remote)) * size / 8})
				if err != nil {
					return err
				}
				defer node.Close()
				if c.Rank() != 0 {
					return nil
				}
				buf := make([]byte, size)
				cycle := func() error {
					for _, p := range remote {
						f, err := node.Open(p)
						if err != nil {
							return err
						}
						_, err = io.ReadFull(f, buf)
						f.Close()
						if err != nil || !bytes.Equal(buf, want[p]) {
							return fmt.Errorf("%s: wrong bytes (%v)", p, err)
						}
					}
					return nil
				}
				for warm := 0; warm < 2; warm++ {
					if err := cycle(); err != nil {
						return err
					}
				}
				const cycles = 4
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < cycles; i++ {
					if err := cycle(); err != nil {
						return err
					}
				}
				runtime.ReadMemStats(&after)
				opens := uint64(cycles * len(remote))
				if st := read(t, node); st.counter("fanstore.opens.remote") < int64(opens) {
					return fmt.Errorf("only %d remote opens in %d: the cache absorbed the cycle", st.counter("fanstore.opens.remote"), opens)
				}
				if per := (after.TotalAlloc - before.TotalAlloc) / opens; per > budget {
					return fmt.Errorf("%d bytes allocated per remote open of a %d-byte object, budget %d", per, size, budget)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRecycledFrameNeverReachesTheCache is the safety half of the frame
// recycling: received frames go back to the pool right after the decode,
// so nothing cached may alias one. Rank 0 holds one remote file open,
// pulls a thousand others of distinct content through demand opens and a
// concurrent Prefetch over TCP — every one of their frames is recycled
// and overwritten by a later fetch — and then reads the pinned file and
// every cached one back byte-exact.
func TestRecycledFrameNeverReachesTheCache(t *testing.T) {
	const files = 2002 // 1001 per rank
	bundle, want := storeBundle(t, files, func(i int) int { return 600 + (i*37)%3500 })
	remote := ownedPaths(t, bundle.Scatter[1])
	err := mpi.RunTCP(2, func(c *mpi.Comm) error {
		node, err := Mount(c, [][]byte{bundle.Scatter[c.Rank()]}, nil, Options{CacheBytes: 16 << 20})
		if err != nil {
			return err
		}
		defer node.Close()
		if c.Rank() != 0 {
			return nil
		}
		pinned, err := node.Open(remote[0])
		if err != nil {
			return err
		}
		defer pinned.Close()
		rest := remote[1:]
		check := func(p string) error {
			got, err := node.ReadFile(p)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, want[p]) {
				return fmt.Errorf("%s: wrong bytes delivered", p)
			}
			return nil
		}
		staged := make(chan struct{})
		go func() {
			defer close(staged)
			// The prefetcher runs ahead of the reader from the middle of
			// the list, so both paths fetch and each meets files the other
			// is producing.
			for at := len(rest) / 2; at < len(rest); at += 16 {
				node.Prefetch(rest[at:min(at+16, len(rest))])
			}
		}()
		for _, p := range rest {
			if err := check(p); err != nil {
				return err
			}
		}
		<-staged
		if st := read(t, node); st.counter("fanstore.opens.remote") == 0 || st.counter("fanstore.cache.prefetched_opens") == 0 {
			return fmt.Errorf("want demand and prefetched opens, got %d remote, %d prefetched", st.counter("fanstore.opens.remote"), st.counter("fanstore.cache.prefetched_opens"))
		}
		got := make([]byte, len(want[remote[0]]))
		if _, err := pinned.ReadAt(got, 0); err != nil && err != io.EOF {
			return err
		}
		if !bytes.Equal(got, want[remote[0]]) {
			return fmt.Errorf("the file held open through %d fetches changed under its pin", len(rest))
		}
		for _, p := range rest { // all cached by now: what the cache holds, not a new fetch
			if err := check(p); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
