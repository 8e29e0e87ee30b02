package fanstore

import (
	"fmt"
	"hash/fnv"
	"io"
	"sync"
	"time"

	"fanstore/internal/trace"
)

// Info is the stat() result surface (§IV-A).
type Info struct {
	Path  string
	Size  int64
	Mode  uint32
	MTime int64
	IsDir bool
}

// File is an open FanStore file descriptor. Read-mode files hold a pinned
// reference into the decompressed cache; write-mode files buffer until
// Close seals them (the multi-read/single-write model of §IV-A).
type File struct {
	node *Node
	path string

	mu       sync.Mutex
	off      int64
	data     []byte // read mode: cache buffer or zero-copy blob alias
	pinned   bool   // read mode: data holds a cache pin Close must release
	writable bool
	wbuf     []byte
	closed   bool
}

// Open opens an existing file for reading, decompressing it into the
// cache if needed (Fig. 2). Concurrent opens of the same file share one
// cache entry and bump its reference count (Fig. 4).
func (n *Node) Open(path string) (*File, error) {
	cp, data, pinned, err := n.open(path)
	if err != nil {
		return nil, err
	}
	return &File{node: n, path: cp, data: data, pinned: pinned}, nil
}

// open is the read half Open and ReadFile share: lookup, then openBytes,
// timed by the open histogram and traced as the open span. It returns the
// clean path and the file's bytes; pinned says they hold a cache pin on
// that path, which the caller releases when it is done with them.
func (n *Node) open(path string) (cp string, data []byte, pinned bool, err error) {
	if n.closed.Load() {
		return "", nil, false, ErrUnmounted
	}
	start := time.Now()
	tstart := n.tracer.Begin()
	defer func() { n.openHist.Observe(time.Since(start)) }()
	cp = cleanPath(path)
	m, isDir := n.lookup(cp)
	if m == nil {
		n.tracer.End(trace.OpOpen, cp, trace.OutcomeError, tstart)
		if isDir {
			return cp, nil, false, fmt.Errorf("%w: %s", ErrIsDir, path)
		}
		return cp, nil, false, fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	data, pinned, outcome, err := n.openBytes(m)
	n.tracer.End(trace.OpOpen, cp, outcome, tstart)
	return cp, data, pinned, err
}

// Create opens a new output file for writing. FanStore's restricted
// write model allows each file to be written once, by one process; the
// file becomes immutable at Close (§IV-A).
func (n *Node) Create(path string) (*File, error) {
	if n.closed.Load() {
		return nil, ErrUnmounted
	}
	cp := cleanPath(path)
	if cp == "" {
		return nil, fmt.Errorf("%w: empty path", ErrNotExist)
	}
	if len(cp) > maxPathLen {
		return nil, fmt.Errorf("fanstore: a %d-byte path is over the %d-byte limit", len(cp), maxPathLen)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.meta[cp]; ok {
		return nil, fmt.Errorf("%w: %s", ErrExist, path)
	}
	if _, ok := n.writes[cp]; ok {
		return nil, fmt.Errorf("%w: %s", ErrExist, path)
	}
	// Reserve the name so concurrent creators race safely.
	n.writes[cp] = nil
	return &File{node: n, path: cp, writable: true}, nil
}

// Read copies bytes from the decompressed cache region (Fig. 3).
func (f *File) Read(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, ErrClosed
	}
	if f.writable {
		return 0, ErrWriteOnly
	}
	if f.off >= int64(len(f.data)) {
		return 0, io.EOF
	}
	c := copy(p, f.data[f.off:])
	f.off += int64(c)
	f.node.bytesRead.Add(int64(c))
	return c, nil
}

// ReadAt implements random-access reads without moving the offset.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, ErrClosed
	}
	if f.writable {
		return 0, ErrWriteOnly
	}
	if off < 0 {
		return 0, fmt.Errorf("fanstore: ReadAt %s: negative offset %d", f.path, off)
	}
	if off >= int64(len(f.data)) {
		return 0, io.EOF
	}
	c := copy(p, f.data[off:])
	f.node.bytesRead.Add(int64(c))
	if c < len(p) {
		return c, io.EOF
	}
	return c, nil
}

// Lseek repositions the file offset (§IV-A's lseek).
func (f *File) Lseek(offset int64, whence int) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, ErrClosed
	}
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = f.off
	case io.SeekEnd:
		if f.writable {
			base = int64(len(f.wbuf))
		} else {
			base = int64(len(f.data))
		}
	default:
		return 0, fmt.Errorf("fanstore: bad whence %d", whence)
	}
	pos := base + offset
	if pos < 0 {
		return 0, fmt.Errorf("fanstore: negative seek position %d", pos)
	}
	f.off = pos
	return pos, nil
}

// Write appends to the output buffer. Writes are only valid on files
// opened with Create and before Close.
func (f *File) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, ErrClosed
	}
	if !f.writable {
		return 0, ErrReadOnly
	}
	// Sparse writes via lseek past the end are zero-filled, as POSIX does.
	if f.off > int64(len(f.wbuf)) {
		f.wbuf = append(f.wbuf, make([]byte, f.off-int64(len(f.wbuf)))...)
	}
	n := copy(f.wbuf[f.off:], p)
	if n < len(p) {
		f.wbuf = append(f.wbuf, p[n:]...)
	}
	f.off += int64(len(p))
	return len(p), nil
}

// Size returns the current logical size.
func (f *File) Size() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.writable {
		return int64(len(f.wbuf))
	}
	return int64(len(f.data))
}

// Close releases the cache pin (read mode) or seals the output file and
// forwards its metadata to the responsible rank (write mode, Fig. 4 and
// §V-D). A file cannot be updated after Close.
func (f *File) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return ErrClosed
	}
	f.closed = true
	writable := f.writable
	pinned := f.pinned
	buf := f.wbuf
	f.mu.Unlock()

	if !writable {
		// Zero-copy fds never inserted into the cache, so they hold no
		// pin; releasing one anyway would mask real unpin bugs behind
		// the cache's double-release tolerance.
		if pinned {
			f.node.cache.Release(f.path)
		}
		return nil
	}
	return f.node.seal(f.path, buf)
}

// seal commits a written file: dump the write-cache entry to the local
// backend and forward the metadata record (§V-D, communication case 4).
// The forward is a call (opWriteMeta) that returns once the home holds
// the record, so a rank that synchronizes with the writer after Close
// finds the file. It costs one round trip when the home is another rank.
func (n *Node) seal(path string, data []byte) error {
	if data == nil {
		data = []byte{}
	}
	m := FileMeta{
		Path:       path,
		Size:       int64(len(data)),
		Mode:       0o644,
		Owner:      int32(n.selfID),
		Written:    true,
		MapVersion: n.view.Version(),
	}
	n.mu.Lock()
	n.writes[path] = data
	n.mu.Unlock()
	n.addMeta(m)
	home := n.metaHome(path)
	if home == n.comm.Rank() {
		return nil
	}
	_, err := n.sealer.Call(home, append([]byte{opWriteMeta}, encodeMetas([]FileMeta{m})...))
	return err
}

// metaHome maps a written file's path to the rank responsible for its
// metadata record: a hash over the alive members of the current map, so
// a record is never homed on an empty slot or a departed node. On a
// static mount every slot is a member and the hash spans the world.
func (n *Node) metaHome(path string) int {
	h := fnv.New32a()
	h.Write([]byte(path))
	alive := n.view.Map().Alive()
	if len(alive) == 0 {
		return n.comm.Rank()
	}
	return alive[h.Sum32()%uint32(len(alive))].Rank
}

// Stat returns file attributes from the in-RAM table — no network or
// shared-filesystem traffic (§IV-C2), except the one lookup a path this
// node does not know costs (see lookup).
func (n *Node) Stat(path string) (Info, error) {
	cp := cleanPath(path)
	m, isDir := n.lookup(cp)
	switch {
	case m != nil:
		return Info{Path: cp, Size: m.Size, Mode: m.Mode, MTime: m.MTime}, nil
	case isDir:
		return Info{Path: cp, Mode: 0o755, IsDir: true}, nil
	}
	return Info{}, fmt.Errorf("%w: %s", ErrNotExist, path)
}

// lookup finds the record of a clean path, or reports it a directory. A
// path this node knows neither way may be a file another rank wrote: its
// record went to the writer's table and to metaHome(path) only. So a miss
// asks that home once (opMetaSync) when it is another rank, and installs
// what it answers — the next lookup is local. Directory listings never
// ask: ReadDir and LatestCheckpoint answer from this node's table. Only a
// path with no record is looked up in the directory index.
func (n *Node) lookup(cp string) (m *FileMeta, isDir bool) {
	n.mu.RLock()
	if m = n.meta[cp]; m == nil {
		isDir = n.dirs.isDir(cp)
	}
	n.mu.RUnlock()
	if m != nil || isDir || n.closed.Load() {
		return m, isDir
	}
	if home := n.metaHome(cp); home == n.comm.Rank() || n.metaSync(home, cp) != nil {
		return nil, false
	}
	n.mu.RLock()
	m = n.meta[cp]
	n.mu.RUnlock()
	return m, false
}

// ReadDir lists a directory from the in-RAM index (§IV-C2's readdir).
func (n *Node) ReadDir(dir string) ([]DirEntry, error) {
	cp := cleanPath(dir)
	n.mu.RLock()
	defer n.mu.RUnlock()
	if entries, ok := n.dirs.list(cp); ok {
		return entries, nil
	}
	if _, ok := n.meta[cp]; ok {
		return nil, fmt.Errorf("%w: %s", ErrNotDir, dir)
	}
	return nil, fmt.Errorf("%w: %s", ErrNotExist, dir)
}

// ReadFile is the convenience read-everything path used by training
// loaders: open, copy out, release — with no File in between.
func (n *Node) ReadFile(path string) ([]byte, error) {
	tstart := n.tracer.Begin()
	cp, data, pinned, err := n.open(path)
	if err != nil {
		n.tracer.End(trace.OpRead, path, trace.OutcomeError, tstart)
		return nil, err
	}
	// append, unlike make+copy, does not clear the bytes it is about to
	// fill; the non-nil empty base keeps an empty file a non-nil slice.
	out := append([]byte{}, data...)
	if pinned {
		n.cache.Release(cp)
	}
	n.bytesRead.Add(int64(len(out)))
	n.tracer.End(trace.OpRead, path, trace.OutcomeNone, tstart)
	return out, nil
}

// WriteFile writes a whole output file (checkpoints, logs, GAN samples —
// §II-B3).
func (n *Node) WriteFile(path string, data []byte) error {
	f, err := n.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
