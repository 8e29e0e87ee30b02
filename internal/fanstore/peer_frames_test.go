package fanstore

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"fanstore/internal/dataset"
	"fanstore/internal/mpi"
	"fanstore/internal/rpc"
)

// TestPeerEmptyFrameStopsNoDaemon: an empty frame is the fetch server's
// pill only when it comes from the server's own rank. A peer's is a
// malformed frame, and the server keeps serving: rank 1 still reads a
// rank-0 object. A peer's malformed opWriteMeta gets an error reply, the
// server keeps serving, and the dataset record it names is unchanged:
// rank 0, the home of a file rank 1 then seals, holds that record as
// soon as the writer's barrier is passed.
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
		dataPath := ownedPaths(t, bundle.Scatter[0])[0]
		forged := func(written bool) []byte {
			return encodeMetas([]FileMeta{{Path: dataPath, Size: 1 << 42, Owner: 1, Written: written}})
		}
		valid := encodeMetas([]FileMeta{{Path: "out/forged", Size: 1, Owner: 1, Written: true}})
		bad := []struct {
			name string
			body []byte
		}{
			{"empty", nil},
			{"truncated", valid[:len(valid)-3]},
			{"not written", forged(false)},
			{"over a partition record", forged(true)},
		}
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
			node.mu.RLock()
			before := *node.recordsLocked()[dataPath]
			node.mu.RUnlock()
			if c.Rank() == 1 {
				for _, b := range bad {
					if _, err := node.client.Call(0, append([]byte{opWriteMeta}, b.body...)); !errors.Is(err, rpc.ErrRemote) {
						return fmt.Errorf("%s opWriteMeta: err %v, want an error reply", b.name, err)
					}
				}
				if err := node.WriteFile(path, body); err != nil {
					return err
				}
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			node.mu.RLock()
			after := *node.recordsLocked()[dataPath]
			node.mu.RUnlock()
			if !reflect.DeepEqual(before, after) {
				return fmt.Errorf("%s: record %+v became %+v", dataPath, before, after)
			}
			if data, err := node.ReadFile(dataPath); err != nil || !bytes.Equal(data, want[dataPath]) {
				return fmt.Errorf("%s after the forgeries: %v", dataPath, err)
			}
			if c.Rank() == 0 {
				if _, err := node.Stat("out/forged"); err == nil {
					return fmt.Errorf("a truncated record was installed")
				}
				data, err := node.ReadFile(path)
				if err != nil || !bytes.Equal(data, body) {
					return fmt.Errorf("%s on its home: %q, %v", path, data, err)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestWrittenFileVisibleAfterBarrier: a written file is visible to every
// rank as soon as the writer's Close is ordered before it. In each of 200
// rounds rank 0 writes four files homed on rank 1 and every rank passes a
// barrier; then rank 1, the home, and rank 2, which knows neither the
// writer's table nor the home's, Stat and read every file, once each.
// When the record went to the home one way, the home's receive loop
// could take it after the barrier: 9 of 10 runs missed a Stat.
func TestWrittenFileVisibleAfterBarrier(t *testing.T) {
	const ranks = 3
	bundle, _ := buildBundle(t, dataset.Language, 6, ranks, 1<<10, nil)
	for _, tr := range []struct {
		name string
		run  func(int, func(*mpi.Comm) error) error
	}{{"inproc", mpi.Run}, {"tcp", mpi.RunTCP}} {
		t.Run(tr.name, func(t *testing.T) {
			// A miss aborts the world, and the run reports the lowest
			// rank's error, the abort: keep every rank's.
			errs := make([]error, ranks)
			err := tr.run(ranks, func(c *mpi.Comm) error {
				errs[c.Rank()] = visibleRounds(c, bundle.Scatter[c.Rank()])
				return errs[c.Rank()]
			})
			if err != nil {
				t.Fatal(errors.Join(errs...))
			}
		})
	}
}

// visibleRounds is one rank of TestWrittenFileVisibleAfterBarrier.
func visibleRounds(c *mpi.Comm, part []byte) error {
	const rounds, perRound = 200, 4
	node, err := Mount(c, [][]byte{part}, nil, Options{FetchTimeout: 5 * time.Second})
	if err != nil {
		return err
	}
	defer node.Close()
	for round := 0; round < rounds; round++ {
		paths := make([]string, 0, perRound)
		for i := 0; len(paths) < perRound; i++ {
			if p := fmt.Sprintf("ckpt/r%03d/f%d", round, i); node.metaHome(p) == 1 {
				paths = append(paths, p)
			}
		}
		if c.Rank() == 0 {
			for _, p := range paths {
				if err := node.WriteFile(p, []byte(p)); err != nil {
					return err
				}
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			continue
		}
		for _, p := range paths {
			if info, err := node.Stat(p); err != nil || info.Size != int64(len(p)) {
				return fmt.Errorf("round %d: Stat(%s) = %+v, %v", round, p, info, err)
			}
			if data, err := node.ReadFile(p); err != nil || string(data) != p {
				return fmt.Errorf("round %d: ReadFile(%s) = %q, %v", round, p, data, err)
			}
		}
	}
	return nil
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
			if info, err := node.Stat(path); err != nil || info.Size != int64(len(body)) || info.IsDir {
				return fmt.Errorf("Stat(%s) = %+v, %v", path, info, err)
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

// TestOverlongWrittenPathPlantsNoRecord: a record carries its path's
// length as a u16, so a written path over 65 535 bytes would wrap it, and
// a rank that asks the writer for the path would install a record nobody
// wrote. Create refuses such a path: WriteFile fails, naming the limit,
// and neither rank's table changes when the other rank looks it up.
func TestOverlongWrittenPathPlantsNoRecord(t *testing.T) {
	bundle, _ := buildBundle(t, dataset.Language, 4, 2, 1<<10, nil)
	errs := make([]error, 2)
	err := mpi.Run(2, func(c *mpi.Comm) error {
		node, err := Mount(c, [][]byte{bundle.Scatter[c.Rank()]}, nil, Options{})
		if err != nil {
			return err
		}
		defer node.Close()
		// A 70 000-byte path whose metadata home is its writer, rank 0, so
		// rank 1's lookup asks rank 0 for it.
		var long string
		for i := 0; ; i++ {
			if long = fmt.Sprintf("out/%d/%s", i, strings.Repeat("x", 70000)); node.metaHome(long) == 0 {
				break
			}
		}
		before := node.NumFiles()
		if c.Rank() == 0 {
			if err := node.WriteFile(long, []byte("phantom")); err == nil || !strings.Contains(err.Error(), "65535") {
				errs[0] = fmt.Errorf("WriteFile of a %d-byte path: %v, want an error naming the 65535-byte limit", len(long), err)
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 1 {
			if _, err := node.Stat(long); !errors.Is(err, ErrNotExist) {
				errs[1] = fmt.Errorf("Stat of the %d-byte path: %v, want ErrNotExist", len(long), err)
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if got := node.NumFiles(); got != before {
			errs[c.Rank()] = errors.Join(errs[c.Rank()], fmt.Errorf("rank %d holds %d records, %d before the write", c.Rank(), got, before))
		}
		return nil
	})
	if err = errors.Join(append(errs, err)...); err != nil {
		t.Fatal(err)
	}
}
