package fanstore

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"fanstore/internal/dataset"
	"fanstore/internal/mpi"
	"fanstore/internal/pack"
)

// buildBundle packs a small synthetic dataset for n ranks and returns the
// bundle plus the original bytes by path.
func buildBundle(t testing.TB, kind dataset.Kind, nFiles, nParts, fileSize int, broadcastDirs []string) (*pack.Bundle, map[string][]byte) {
	t.Helper()
	g := dataset.Generator{Kind: kind, Seed: 21, Size: fileSize}
	files := make([]pack.InputFile, nFiles)
	want := make(map[string][]byte, nFiles)
	for i := range files {
		f := g.File(i, nFiles)
		files[i] = pack.InputFile{Path: f.Path, Data: f.Data}
		want[f.Path] = f.Data
	}
	bundle, err := pack.Build(files, pack.BuildOptions{
		Partitions:    nParts,
		Compressor:    "lzsse8",
		BroadcastDirs: broadcastDirs,
	})
	if err != nil {
		t.Fatal(err)
	}
	return bundle, want
}

func TestMountAndReadEverythingEverywhere(t *testing.T) {
	const ranks = 4
	bundle, want := buildBundle(t, dataset.Language, 24, ranks, 8<<10, nil)
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		node, err := Mount(c, [][]byte{bundle.Scatter[c.Rank()]}, nil, Options{CacheBytes: 1 << 20})
		if err != nil {
			return err
		}
		defer node.Close()
		if node.NumFiles() != len(want) {
			return fmt.Errorf("rank %d sees %d files, want %d", c.Rank(), node.NumFiles(), len(want))
		}
		// The global dataset view (§III): every rank reads every file,
		// local or remote, and gets identical bytes.
		for path, data := range want {
			got, err := node.ReadFile(path)
			if err != nil {
				return fmt.Errorf("rank %d: %s: %w", c.Rank(), path, err)
			}
			if !bytes.Equal(got, data) {
				return fmt.Errorf("rank %d: %s: content mismatch", c.Rank(), path)
			}
		}
		st := read(t, node)
		if st.counter("fanstore.opens.remote") == 0 {
			return fmt.Errorf("rank %d never fetched remotely", c.Rank())
		}
		if st.counter("fanstore.opens.local") == 0 {
			return fmt.Errorf("rank %d never served locally", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMetadataServedFromRAM(t *testing.T) {
	const ranks = 3
	bundle, want := buildBundle(t, dataset.ImageNet, 18, ranks, 4<<10, nil)
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		node, err := Mount(c, [][]byte{bundle.Scatter[c.Rank()]}, nil, Options{})
		if err != nil {
			return err
		}
		defer node.Close()
		// stat() every file: identical view on all ranks, no data motion.
		for path, data := range want {
			info, err := node.Stat(path)
			if err != nil {
				return err
			}
			if info.Size != int64(len(data)) || info.IsDir {
				return fmt.Errorf("stat %s: %+v", path, info)
			}
		}
		// readdir() walks the whole tree.
		var walk func(dir string) (int, error)
		walk = func(dir string) (int, error) {
			entries, err := node.ReadDir(dir)
			if err != nil {
				return 0, err
			}
			count := 0
			for _, e := range entries {
				child := e.Name
				if dir != "" {
					child = dir + "/" + e.Name
				}
				if e.IsDir {
					n, err := walk(child)
					if err != nil {
						return 0, err
					}
					count += n
				} else {
					count++
				}
			}
			return count, nil
		}
		total, err := walk("")
		if err != nil {
			return err
		}
		if total != len(want) {
			return fmt.Errorf("walk found %d files, want %d", total, len(want))
		}
		if st := read(t, node); st.counter("fanstore.opens.remote") != 0 || st.counter("fanstore.bytes.remote") != 0 {
			return fmt.Errorf("metadata access caused remote traffic: %+v", st)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBroadcastPartitionIsLocalEverywhere(t *testing.T) {
	const ranks = 3
	bundle, want := buildBundle(t, dataset.Language, 12, ranks, 4<<10, []string{"language"})
	if bundle.Broadcast == nil {
		t.Fatal("expected broadcast partition")
	}
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		node, err := Mount(c, nil, bundle.Broadcast, Options{})
		if err != nil {
			return err
		}
		defer node.Close()
		for path, data := range want {
			got, err := node.ReadFile(path)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, data) {
				return fmt.Errorf("%s mismatch", path)
			}
		}
		if st := read(t, node); st.counter("fanstore.opens.remote") != 0 {
			return fmt.Errorf("broadcast data should be local: %+v", st)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRingReplicate(t *testing.T) {
	const ranks = 4
	bundle, want := buildBundle(t, dataset.EM, 16, ranks, 8<<10, nil)
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		own := [][]byte{bundle.Scatter[c.Rank()]}
		extra, err := RingReplicate(c, own)
		if err != nil {
			return err
		}
		if len(extra) != 1 {
			return fmt.Errorf("rank %d received %d replicas", c.Rank(), len(extra))
		}
		prev := (c.Rank() + c.Size() - 1) % c.Size()
		if !bytes.Equal(extra[0], bundle.Scatter[prev]) {
			return fmt.Errorf("rank %d replica is not predecessor's partition", c.Rank())
		}
		node, err := Mount(c, own, nil, Options{Replicas: extra})
		if err != nil {
			return err
		}
		defer node.Close()
		// Files owned by the ring predecessor are now served locally.
		p, err := pack.Parse(bundle.Scatter[prev])
		if err != nil {
			return err
		}
		for i := range p.Entries {
			if _, err := node.ReadFile(p.Entries[i].Path); err != nil {
				return err
			}
		}
		if st := read(t, node); st.counter("fanstore.opens.remote") != 0 {
			return fmt.Errorf("replicated partition still fetched remotely: %+v", st)
		}
		// And the rest of the namespace still resolves.
		for path := range want {
			if _, err := node.Stat(path); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestElasticMountsRefuseReplicas: Options.Replicas is announced only by a
// static mount's exchange, so MountElastic and JoinCluster refuse it with
// an error naming the static mount instead of mounting without the
// replicas the caller asked for.
func TestElasticMountsRefuseReplicas(t *testing.T) {
	bundle, _ := buildBundle(t, dataset.ImageNet, 4, 2, 1<<10, nil)
	opts := ElasticOptions{Options: Options{Replicas: [][]byte{bundle.Scatter[1]}}}
	err := mpi.Run(1, func(c *mpi.Comm) error {
		for _, m := range []struct {
			name  string
			mount func() (*Node, error)
		}{
			{"MountElastic", func() (*Node, error) { return MountElastic(c, [][]byte{bundle.Scatter[0]}, opts) }},
			{"JoinCluster", func() (*Node, error) { return JoinCluster(c, 0, opts) }},
		} {
			node, err := m.mount()
			if err == nil {
				node.Close()
				return fmt.Errorf("%s mounted with Options.Replicas", m.name)
			}
			if !strings.Contains(err.Error(), "static mount (Mount)") {
				return fmt.Errorf("%s: error %q does not name the static mount", m.name, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWritePath(t *testing.T) {
	const ranks = 4
	bundle, _ := buildBundle(t, dataset.Language, 8, ranks, 2<<10, nil)
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		node, err := Mount(c, [][]byte{bundle.Scatter[c.Rank()]}, nil, Options{})
		if err != nil {
			return err
		}
		defer node.Close()
		// Each rank writes a checkpoint named by "epoch" (§II-B3).
		path := fmt.Sprintf("ckpt/model_epoch%d.bin", c.Rank())
		payload := bytes.Repeat([]byte{byte(c.Rank() + 1)}, 1000)
		f, err := node.Create(path)
		if err != nil {
			return err
		}
		if _, err := f.Write(payload[:500]); err != nil {
			return err
		}
		if _, err := f.Write(payload[500:]); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		// Single-write model: the file is sealed.
		if _, err := f.Write([]byte("more")); !errors.Is(err, ErrClosed) {
			return fmt.Errorf("write after close: %v", err)
		}
		if _, err := node.Create(path); !errors.Is(err, ErrExist) {
			return fmt.Errorf("re-create sealed file: %v", err)
		}
		// The writer reads its own output back.
		got, err := node.ReadFile(path)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, payload) {
			return fmt.Errorf("checkpoint readback mismatch")
		}
		// An empty file reads back as a non-nil empty slice.
		empty := fmt.Sprintf("ckpt/empty%d.bin", c.Rank())
		if err := node.WriteFile(empty, nil); err != nil {
			return err
		}
		if got, err := node.ReadFile(empty); err != nil || got == nil || len(got) != 0 {
			return fmt.Errorf("empty file read back as %v, %v", got, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWriteMetadataForwarding(t *testing.T) {
	const ranks = 4
	bundle, _ := buildBundle(t, dataset.Language, 8, ranks, 2<<10, nil)
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		node, err := Mount(c, [][]byte{bundle.Scatter[c.Rank()]}, nil, Options{})
		if err != nil {
			return err
		}
		defer node.Close()
		// Rank 0 writes; the metadata home rank must learn about it and
		// any rank can then fetch it from the writer via the home's view.
		const path = "out/sample_0001.png"
		if c.Rank() == 0 {
			if err := node.WriteFile(path, []byte("generated sample")); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		home := node.metaHome(path)
		if c.Rank() == home || c.Rank() == 0 {
			info, err := node.Stat(path)
			if err != nil {
				return fmt.Errorf("rank %d (home=%d): %w", c.Rank(), home, err)
			}
			if info.Size != int64(len("generated sample")) {
				return fmt.Errorf("forwarded size %d", info.Size)
			}
			got, err := node.ReadFile(path)
			if err != nil {
				return err
			}
			if string(got) != "generated sample" {
				return fmt.Errorf("readback %q", got)
			}
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFileSemantics(t *testing.T) {
	bundle, want := buildBundle(t, dataset.Language, 2, 1, 4<<10, nil)
	err := mpi.Run(1, func(c *mpi.Comm) error {
		node, err := Mount(c, [][]byte{bundle.Scatter[0]}, nil, Options{})
		if err != nil {
			return err
		}
		defer node.Close()
		var path string
		var data []byte
		for p, d := range want {
			path, data = p, d
			break
		}
		f, err := node.Open(path)
		if err != nil {
			return err
		}
		// Partial reads advance the offset.
		buf := make([]byte, 100)
		if n, err := f.Read(buf); err != nil || n != 100 || !bytes.Equal(buf, data[:100]) {
			return fmt.Errorf("first read: n=%d err=%v", n, err)
		}
		// Lseek semantics.
		if pos, err := f.Lseek(10, io.SeekStart); err != nil || pos != 10 {
			return fmt.Errorf("seek start: %d %v", pos, err)
		}
		if n, _ := f.Read(buf[:5]); n != 5 || !bytes.Equal(buf[:5], data[10:15]) {
			return fmt.Errorf("read after seek")
		}
		if pos, err := f.Lseek(-5, io.SeekCurrent); err != nil || pos != 10 {
			return fmt.Errorf("seek current: %d %v", pos, err)
		}
		if pos, err := f.Lseek(0, io.SeekEnd); err != nil || pos != int64(len(data)) {
			return fmt.Errorf("seek end: %d %v", pos, err)
		}
		if _, err := f.Read(buf); err != io.EOF {
			return fmt.Errorf("read at EOF: %v", err)
		}
		if _, err := f.Lseek(-1, io.SeekStart); err == nil {
			return fmt.Errorf("negative seek accepted")
		}
		if _, err := f.ReadAt(buf[:4], 4); err != nil || !bytes.Equal(buf[:4], data[4:8]) {
			return fmt.Errorf("ReadAt")
		}
		if n, err := f.ReadAt(buf[:4], -1); n != 0 || err == nil || errors.Is(err, io.EOF) {
			return fmt.Errorf("ReadAt at a negative offset: n=%d err=%v, want an error that is not EOF", n, err)
		}
		if _, err := f.Write([]byte("x")); !errors.Is(err, ErrReadOnly) {
			return fmt.Errorf("write to read FD: %v", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		if err := f.Close(); !errors.Is(err, ErrClosed) {
			return fmt.Errorf("double close: %v", err)
		}
		if _, err := f.Read(buf); !errors.Is(err, ErrClosed) {
			return fmt.Errorf("read after close: %v", err)
		}

		// Error surface.
		if _, err := node.Open("missing.txt"); !errors.Is(err, ErrNotExist) {
			return fmt.Errorf("open missing: %v", err)
		}
		if _, err := node.Open("language"); !errors.Is(err, ErrIsDir) {
			return fmt.Errorf("open dir: %v", err)
		}
		if _, err := node.ReadDir(path); !errors.Is(err, ErrNotDir) {
			return fmt.Errorf("readdir file: %v", err)
		}
		if _, err := node.Stat("nope/nope"); !errors.Is(err, ErrNotExist) {
			return fmt.Errorf("stat missing: %v", err)
		}

		// Sparse write via lseek (POSIX zero fill).
		w, err := node.Create("sparse.bin")
		if err != nil {
			return err
		}
		if _, err := w.Write([]byte("ab")); err != nil {
			return err
		}
		if _, err := w.Lseek(5, io.SeekStart); err != nil {
			return err
		}
		if _, err := w.Write([]byte("z")); err != nil {
			return err
		}
		if err := w.Close(); err != nil {
			return err
		}
		got, err := node.ReadFile("sparse.bin")
		if err != nil {
			return err
		}
		if !bytes.Equal(got, []byte{'a', 'b', 0, 0, 0, 'z'}) {
			return fmt.Errorf("sparse content %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestHitPathAllocs is the allocation gate of the file surface on a
// cache hit: ReadFile allocates only the slice it returns (it draws from
// the decomp pool, and this loop drops what it gets instead of handing it
// back with decomp.PutBuf as the prefetch pipeline does), Open+Read+Close
// only the *File, and Stat nothing. The counts are exact, so a change
// that moves one either way has to say why.
func TestHitPathAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race detector randomizes sync.Pool; pool determinism untestable")
	}
	bundle, want := buildBundle(t, dataset.EM, 1, 1, 4<<10, nil)
	var path string
	for p := range want {
		path = p
	}
	err := mpi.Run(1, func(c *mpi.Comm) error {
		node, err := Mount(c, bundle.Scatter, nil, Options{})
		if err != nil {
			return err
		}
		defer node.Close()
		if _, err := node.ReadFile(path); err != nil {
			return err
		}
		buf := make([]byte, len(want[path]))
		for _, op := range []struct {
			name string
			want float64
			run  func() error
		}{
			{"ReadFile", 1, func() error {
				_, err := node.ReadFile(path)
				return err
			}},
			{"Open+Read+Close", 1, func() error {
				f, err := node.Open(path)
				if err != nil {
					return err
				}
				if _, err := io.ReadFull(f, buf); err != nil {
					return err
				}
				return f.Close()
			}},
			{"Stat", 0, func() error {
				_, err := node.Stat(path)
				return err
			}},
		} {
			var opErr error
			allocs := testing.AllocsPerRun(1000, func() {
				if err := op.run(); err != nil {
					opErr = err
				}
			})
			if opErr != nil {
				return fmt.Errorf("%s: %w", op.name, opErr)
			}
			if allocs != op.want {
				return fmt.Errorf("a cache-hit %s allocates %.0f objects, want %.0f", op.name, allocs, op.want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentReadersShareCache(t *testing.T) {
	const ranks = 2
	bundle, want := buildBundle(t, dataset.EM, 6, ranks, 16<<10, nil)
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		node, err := Mount(c, [][]byte{bundle.Scatter[c.Rank()]}, nil, Options{CacheBytes: 4 << 20})
		if err != nil {
			return err
		}
		defer node.Close()
		paths := make([]string, 0, len(want))
		for p := range want {
			paths = append(paths, p)
		}
		var wg sync.WaitGroup
		errCh := make(chan error, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					p := paths[(g+i)%len(paths)]
					got, err := node.ReadFile(p)
					if err != nil {
						errCh <- err
						return
					}
					if !bytes.Equal(got, want[p]) {
						errCh <- fmt.Errorf("%s mismatch under concurrency", p)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			return err
		}
		st := read(t, node)
		// 8 goroutines x 20 reads with 6 files: the cache must have
		// absorbed most opens (each file decompressed far fewer times
		// than it was read).
		if st.counter("fanstore.decompresses") >= 100 {
			return fmt.Errorf("cache ineffective: %d decompresses for 160 reads", st.counter("fanstore.decompresses"))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRemoteFetchMissingObject(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) error {
		node, err := Mount(c, nil, nil, Options{})
		if err != nil {
			return err
		}
		defer node.Close()
		if c.Rank() == 0 {
			// Forge metadata claiming rank 1 owns a file it doesn't have.
			node.addMeta(FileMeta{Path: "ghost.bin", Size: 4, Owner: 1})
			if _, err := node.Open("ghost.bin"); !errors.Is(err, ErrRemoteGone) {
				return fmt.Errorf("expected ErrRemoteGone, got %v", err)
			}
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFanStoreOverTCP runs the full mount/read/write flow with messages
// carried over real TCP sockets instead of in-process channels.
func TestFanStoreOverTCP(t *testing.T) {
	const ranks = 3
	bundle, want := buildBundle(t, dataset.Language, 12, ranks, 4<<10, nil)
	err := mpi.RunTCP(ranks, func(c *mpi.Comm) error {
		node, err := Mount(c, [][]byte{bundle.Scatter[c.Rank()]}, nil, Options{})
		if err != nil {
			return err
		}
		defer node.Close()
		for path, data := range want {
			got, err := node.ReadFile(path)
			if err != nil {
				return fmt.Errorf("rank %d: %s: %w", c.Rank(), path, err)
			}
			if !bytes.Equal(got, data) {
				return fmt.Errorf("rank %d: %s corrupted over TCP", c.Rank(), path)
			}
		}
		if st := read(t, node); st.counter("fanstore.opens.remote") == 0 {
			return fmt.Errorf("rank %d: no remote fetches over TCP", c.Rank())
		}
		return node.WriteFile(fmt.Sprintf("out/r%d.log", c.Rank()), []byte("done"))
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMountRejectsCorruptPartition(t *testing.T) {
	err := mpi.Run(1, func(c *mpi.Comm) error {
		if _, err := Mount(c, [][]byte{{1, 2, 3}}, nil, Options{}); err == nil {
			return errors.New("corrupt partition accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOpsAfterClose(t *testing.T) {
	bundle, _ := buildBundle(t, dataset.Language, 2, 1, 1<<10, nil)
	err := mpi.Run(1, func(c *mpi.Comm) error {
		node, err := Mount(c, [][]byte{bundle.Scatter[0]}, nil, Options{})
		if err != nil {
			return err
		}
		if err := node.Close(); err != nil {
			return err
		}
		if err := node.Close(); err != nil { // idempotent
			return err
		}
		if _, err := node.Open("anything"); !errors.Is(err, ErrUnmounted) {
			return fmt.Errorf("open after close: %v", err)
		}
		if _, err := node.Create("x"); !errors.Is(err, ErrUnmounted) {
			return fmt.Errorf("create after close: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDiskBackend is the paper's SSD back end: each rank writes its
// partition to local disk, maps it and mounts the mapping, and every
// file, local (read from the mapping) or remote (fetched from the peer's
// mapping), round-trips byte-exact.
func TestDiskBackend(t *testing.T) {
	const ranks = 2
	bundle, want := buildBundle(t, dataset.EM, 8, ranks, 16<<10, nil)
	mapped := make([][]byte, ranks)
	for r := range mapped {
		mapped[r] = mappedBlob(t, bundle.Scatter[r])
	}
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		node, err := Mount(c, [][]byte{mapped[c.Rank()]}, nil, Options{
			CachePolicy: Immediate, // read the mapping on every open
		})
		if err != nil {
			return err
		}
		defer node.Close()
		for path, data := range want {
			for round := 0; round < 2; round++ {
				got, err := node.ReadFile(path)
				if err != nil {
					return fmt.Errorf("rank %d: %s: %w", c.Rank(), path, err)
				}
				if !bytes.Equal(got, data) {
					return fmt.Errorf("rank %d: %s corrupted via a mapped partition", c.Rank(), path)
				}
			}
		}
		if st := read(t, node); st.counter("fanstore.opens.remote") == 0 || st.counter("fanstore.opens.local") == 0 {
			return fmt.Errorf("rank %d: unexpected stats %+v", c.Rank(), read(t, node))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDiskBackendBadDir is a bad partition file failing with an error,
// never a fault: pack.Map refuses a missing file, a directory and an
// empty file, naming it; a truncated partition maps, and Mount refuses it
// through pack.Parse.
func TestDiskBackendBadDir(t *testing.T) {
	bundle, _ := buildBundle(t, dataset.Language, 2, 1, 1<<10, nil)
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.fst")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ name, path, want string }{
		{"missing", filepath.Join(dir, "no-such.fst"), ""}, // and an os.ErrNotExist
		{"directory", dir, "not a regular file"},
		{"empty", empty, "empty file"},
	} {
		_, _, err := pack.Map(c.path)
		if err == nil || !strings.Contains(err.Error(), c.path) || !strings.Contains(err.Error(), c.want) ||
			c.want == "" && !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s: Map error = %v; want one naming %s with %q", c.name, err, c.path, c.want)
		}
	}

	blob := bundle.Scatter[0]
	truncated := mappedBlob(t, blob[:len(blob)/2])
	err := mpi.Run(1, func(c *mpi.Comm) error {
		if _, err := Mount(c, [][]byte{truncated}, nil, Options{}); err == nil || !strings.Contains(err.Error(), "truncated") {
			return fmt.Errorf("truncated partition: Mount error = %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNodeMetrics(t *testing.T) {
	const ranks = 2
	bundle, want := buildBundle(t, dataset.EM, 8, ranks, 8<<10, nil)
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		node, err := Mount(c, [][]byte{bundle.Scatter[c.Rank()]}, nil, Options{CachePolicy: Immediate})
		if err != nil {
			return err
		}
		defer node.Close()
		for path := range want {
			if _, err := node.ReadFile(path); err != nil {
				return err
			}
		}
		st := read(t, node)
		open, fetch := st.hist("fanstore.open.latency"), st.hist("fanstore.fetch.latency")
		if open.Count != int64(len(want)) {
			return fmt.Errorf("open histogram has %d samples, want %d", open.Count, len(want))
		}
		if fetch.Count == 0 || fetch.Count >= open.Count {
			return fmt.Errorf("fetch histogram count %d vs opens %d", fetch.Count, open.Count)
		}
		if open.P99 <= 0 || fetch.Mean <= 0 {
			return fmt.Errorf("degenerate metrics: open %v fetch %v", open, fetch)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNodeAccessors(t *testing.T) {
	bundle, want := buildBundle(t, dataset.Language, 4, 2, 1<<10, nil)
	err := mpi.Run(2, func(c *mpi.Comm) error {
		node, err := Mount(c, [][]byte{bundle.Scatter[c.Rank()]}, nil, Options{})
		if err != nil {
			return err
		}
		defer node.Close()
		if node.Rank() != c.Rank() {
			return fmt.Errorf("Rank() = %d", node.Rank())
		}
		if node.LocalFiles() != 2 {
			return fmt.Errorf("LocalFiles() = %d", node.LocalFiles())
		}
		for path, data := range want {
			f, err := node.Open(path)
			if err != nil {
				return err
			}
			if f.Size() != int64(len(data)) {
				f.Close()
				return fmt.Errorf("Size() = %d, want %d", f.Size(), len(data))
			}
			f.Close()
			break
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSingleflightFetch verifies concurrent opens of the same uncached
// remote file perform exactly one remote fetch.
func TestSingleflightFetch(t *testing.T) {
	bundle, want := buildBundle(t, dataset.EM, 2, 2, 32<<10, nil)
	err := mpi.Run(2, func(c *mpi.Comm) error {
		node, err := Mount(c, [][]byte{bundle.Scatter[c.Rank()]}, nil, Options{})
		if err != nil {
			return err
		}
		defer node.Close()
		if c.Rank() == 0 {
			// The file rank 1 owns (round-robin: index 1).
			var remote string
			for path := range want {
				if !node.backend.Contains(cleanPath(path)) {
					remote = path
					break
				}
			}
			const openers = 16
			var wg sync.WaitGroup
			errCh := make(chan error, openers)
			for g := 0; g < openers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					f, err := node.Open(remote)
					if err != nil {
						errCh <- err
						return
					}
					defer f.Close()
					if !bytes.Equal(f.data, want[remote]) {
						errCh <- fmt.Errorf("content mismatch")
					}
				}()
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				return err
			}
			if st := read(t, node); st.counter("fanstore.opens.remote") != 1 {
				return fmt.Errorf("%d remote fetches for %d concurrent opens, want 1", st.counter("fanstore.opens.remote"), openers)
			}
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}
