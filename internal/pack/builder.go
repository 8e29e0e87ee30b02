package pack

import (
	"fmt"
	"hash/crc32"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"fanstore/internal/codec"
)

// InputFile is one source file handed to the data preparation tool.
type InputFile struct {
	Path string
	Data []byte
	// Broadcast marks the file for replication to every node (the
	// paper's broadcast directory for validation data, §V-B).
	Broadcast bool
}

// BuildOptions configures the data preparation tool (§V-B): data path
// semantics are handled by the caller; here we take the file list, the
// partition count, and the compressor.
type BuildOptions struct {
	// Partitions is the number of scatter partitions to produce.
	Partitions int
	// Compressor is the codec configuration name (or paper alias) used
	// for every file. Files that do not shrink are stored raw, with the
	// per-file compressor field recording "store".
	Compressor string
	// Workers bounds the compression threads; 0 means GOMAXPROCS.
	Workers int
	// BroadcastDirs lists path prefixes whose files are replicated to
	// every node instead of scattered (validation data).
	BroadcastDirs []string
}

// Bundle is the output of the data preparation tool: scatter partitions
// (each loaded by one node) and a broadcast partition replicated to all.
type Bundle struct {
	// Scatter holds the serialized scatter partition blobs.
	Scatter [][]byte
	// Broadcast is the serialized broadcast partition (nil if empty).
	Broadcast []byte
	// RawBytes and PackedBytes summarize the achieved compression.
	RawBytes    int64
	PackedBytes int64
}

// Ratio reports the dataset-level compression ratio achieved.
func (b *Bundle) Ratio() float64 {
	if b.PackedBytes == 0 {
		return 1
	}
	return float64(b.RawBytes) / float64(b.PackedBytes)
}

// Build runs the multi-threaded data preparation tool over the input
// list: it compresses every file with the requested codec (keeping raw
// bytes when compression does not help), assigns scattered files to
// partitions round-robin, and serializes each partition (§V-B).
func Build(files []InputFile, opts BuildOptions) (*Bundle, error) {
	if opts.Partitions <= 0 {
		return nil, fmt.Errorf("pack: partition count %d", opts.Partitions)
	}
	cfg, ok := codec.ByName(opts.Compressor)
	if !ok {
		return nil, fmt.Errorf("pack: unknown compressor %q", opts.Compressor)
	}
	store := codec.MustGet("store")

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	entries := make([]Entry, len(files))
	broadcast := make([]bool, len(files))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	// Each worker processes an interleaved slice of the file list — the
	// round-robin chunk assignment of §V-B.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(files); i += workers {
				f := files[i]
				comp, err := cfg.Codec.Compress(nil, f.Data)
				if err != nil {
					errs[w] = fmt.Errorf("pack: compress %s: %w", f.Path, err)
					return
				}
				id := cfg.ID
				if len(comp) >= len(f.Data) {
					// Compression did not help (e.g. ImageNet JPEGs):
					// store raw so decode cost is a memcpy.
					if comp, err = store.Codec.Compress(comp[:0], f.Data); err != nil {
						errs[w] = err
						return
					}
					id = store.ID
				}
				entries[i] = Entry{
					Path:         f.Path,
					CompressorID: id,
					Stat: Stat{
						Size:  int64(len(f.Data)),
						Mode:  0o644,
						MTime: time.Unix(0, 0).UnixNano(),
						CRC32: crc32.ChecksumIEEE(f.Data),
					},
					Data: comp,
				}
				broadcast[i] = f.Broadcast || inDirs(f.Path, opts.BroadcastDirs)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	bundle := &Bundle{}
	parts := make([][]Entry, opts.Partitions)
	var bcast []Entry
	scatterIdx := 0
	for i := range entries {
		bundle.RawBytes += entries[i].Stat.Size
		if broadcast[i] {
			bcast = append(bcast, entries[i])
			continue
		}
		p := scatterIdx % opts.Partitions
		parts[p] = append(parts[p], entries[i])
		scatterIdx++
	}
	// Serialize every partition (and the broadcast set) concurrently on
	// the same bounded worker budget as compression: Marshal is a large
	// sequential copy per partition — each preallocates its blob from the
	// summed entry sizes — and running them one at a time leaves a serial
	// tail on the build.
	jobs := make([][]Entry, 0, len(parts)+1)
	jobs = append(jobs, parts...)
	if len(bcast) > 0 {
		jobs = append(jobs, bcast)
	}
	blobs := make([][]byte, len(jobs))
	merrs := make([]error, len(jobs))
	if workers > len(jobs) {
		workers = len(jobs)
	}
	var mwg sync.WaitGroup
	for w := 0; w < workers; w++ {
		mwg.Add(1)
		go func(w int) {
			defer mwg.Done()
			for i := w; i < len(jobs); i += workers {
				blobs[i], merrs[i] = Marshal(jobs[i])
			}
		}(w)
	}
	mwg.Wait()
	for _, err := range merrs {
		if err != nil {
			return nil, err
		}
	}
	for _, blob := range blobs[:len(parts)] {
		bundle.Scatter = append(bundle.Scatter, blob)
		bundle.PackedBytes += int64(len(blob))
	}
	if len(bcast) > 0 {
		blob := blobs[len(parts)]
		bundle.Broadcast = blob
		bundle.PackedBytes += int64(len(blob))
	}
	return bundle, nil
}

func inDirs(path string, dirs []string) bool {
	for _, d := range dirs {
		d = strings.TrimSuffix(d, "/")
		if d != "" && strings.HasPrefix(path, d+"/") {
			return true
		}
	}
	return false
}

// SortedPaths returns every path in the bundle's partitions, sorted.
// It exists for tests and for the prep tool's manifest output.
func SortedPaths(blobs ...[]byte) ([]string, error) {
	var out []string
	for _, blob := range blobs {
		if len(blob) == 0 {
			continue
		}
		p, err := Parse(blob)
		if err != nil {
			return nil, err
		}
		for i := range p.Entries {
			out = append(out, p.Entries[i].Path)
		}
	}
	sort.Strings(out)
	return out, nil
}
