package fanstore

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"fanstore/internal/dataset"
	"fanstore/internal/mpi"
)

// TestPeerEmptyFrameStopsNoDaemon: an empty frame is a daemon's pill only
// when it comes from the daemon's own rank. A peer's — on the fetch tag or
// the write-metadata tag — is a malformed frame, and the daemon keeps
// serving: rank 1 still reads a rank-0 object, and rank 0, the home of a
// file rank 1 seals, still learns its record.
func TestPeerEmptyFrameStopsNoDaemon(t *testing.T) {
	bundle, want := buildBundle(t, dataset.Language, 8, 2, 1<<10, nil)
	t.Run("fetch", func(t *testing.T) {
		path := ownedPaths(t, bundle.Scatter[0])[0]
		err := mpi.Run(2, func(c *mpi.Comm) error {
			node, err := Mount(c, [][]byte{bundle.Scatter[c.Rank()]}, nil, Options{FetchTimeout: 2 * time.Second})
			if err != nil {
				return err
			}
			defer node.Close()
			if c.Rank() == 0 {
				return nil
			}
			if err := c.Send(0, tagFetch, nil); err != nil {
				return err
			}
			data, err := node.ReadFile(path)
			if err != nil {
				return fmt.Errorf("read after the empty frame: %w", err)
			}
			if !bytes.Equal(data, want[path]) {
				return fmt.Errorf("%s: content mismatch", path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	t.Run("writemeta", func(t *testing.T) {
		body := []byte("sealed by rank 1")
		err := mpi.Run(2, func(c *mpi.Comm) error {
			node, err := Mount(c, [][]byte{bundle.Scatter[c.Rank()]}, nil, Options{FetchTimeout: 2 * time.Second})
			if err != nil {
				return err
			}
			defer node.Close()
			path := "out/homed-on-0"
			for i := 0; node.metaHome(path) != 0; i++ {
				path = fmt.Sprintf("out/homed-on-0.%d", i)
			}
			if c.Rank() == 1 {
				if err := c.Send(0, tagWriteMeta, nil); err != nil {
					return err
				}
				if err := node.WriteFile(path, body); err != nil {
					return err
				}
				return c.Barrier()
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			// The record is forwarded one way: it lands when the home's
			// write-metadata loop takes it.
			if err := awaitCond("the home's record of "+path, func() bool {
				_, err := node.Stat(path)
				return err == nil
			}); err != nil {
				return err
			}
			data, err := node.ReadFile(path)
			if err != nil || !bytes.Equal(data, body) {
				return fmt.Errorf("%s on its home: %q, %v", path, data, err)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestWrittenFileReadableFromEveryRank: a written file's record lives on
// its writer and its metadata home, yet every rank can Stat and read it —
// a rank that knows neither asks the home once. Each of three ranks writes
// a checkpoint; every rank then reads all three, byte for byte.
func TestWrittenFileReadableFromEveryRank(t *testing.T) {
	const ranks = 3
	bundle, _ := buildBundle(t, dataset.Language, 6, ranks, 1<<10, nil)
	ckpt := func(r int) (string, []byte) {
		return fmt.Sprintf("ckpt/rank%d.bin", r), []byte(fmt.Sprintf("weights of rank %d", r))
	}
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		node, err := Mount(c, [][]byte{bundle.Scatter[c.Rank()]}, nil, Options{FetchTimeout: 2 * time.Second})
		if err != nil {
			return err
		}
		defer node.Close()
		path, body := ckpt(c.Rank())
		if err := node.WriteFile(path, body); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		for r := 0; r < ranks; r++ {
			path, body := ckpt(r)
			// The home learns the record one way (seal's Send), so the
			// first asks may come before it has.
			var info Info
			var statErr error
			if err := awaitCond(path+" visible", func() bool {
				info, statErr = node.Stat(path)
				return statErr == nil
			}); err != nil {
				return fmt.Errorf("%w (Stat: %v)", err, statErr)
			}
			if info.Size != int64(len(body)) || info.IsDir {
				return fmt.Errorf("Stat(%s) = %+v", path, info)
			}
			data, err := node.ReadFile(path)
			if err != nil || !bytes.Equal(data, body) {
				return fmt.Errorf("%s: %q, %v; want %q", path, data, err, body)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
