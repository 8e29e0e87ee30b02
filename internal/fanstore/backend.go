package fanstore

import (
	"fmt"
	"sync"

	"fanstore/internal/pack"
)

// Backend is the node-local storage layer holding this rank's compressed
// objects (§IV-C1). The one implementation, NewRAMBackend, indexes the
// partition blobs it is given, whether they are in the heap or mapped
// from the packed files on local disk (pack.Map: the paper's SSD back
// end); tests and ablations wrap it. Both the local open path and the
// daemon serve from it. Implementations must be safe for concurrent use;
// the daemon worker pool calls Get from many goroutines. Bytes Get and
// Peek return are never written again, not even after Remove, so a fetch
// reply lends them to the transport, which reads them after the handler
// has returned. Over a mapped blob they are read-only memory, and a write
// through them faults.
type Backend interface {
	// AddPartition ingests every entry of a parsed partition blob, making
	// the compressed objects retrievable by their clean path.
	AddPartition(blob []byte, part *pack.Partition) error
	// Get returns the compressed bytes and compressor of one object, or
	// an error wrapping ErrNotExist when the backend does not hold it.
	Get(path string) (compressorID uint16, data []byte, err error)
	// Peek returns the object's compressed bytes when the backend can
	// lend them without I/O, as addressable memory a fetch reply or a
	// zero-copy open may alias: a slice of the blob. A mapped object's
	// first touch may still page in from disk. ok=false means only Get
	// can answer (or the object is absent); the store then calls Get,
	// with bounded concurrency when it answers a batch.
	Peek(path string) (compressorID uint16, data []byte, ok bool)
	// Contains reports whether the backend holds path.
	Contains(path string) bool
	// Remove forgets the given objects — the old owner's half of a
	// rebalance handoff commit. It drops index entries only: the blob
	// stays where it is, heap or mapping, for slices already lent.
	Remove(paths []string)
	// Len reports how many objects the backend holds.
	Len() int
	// Close releases backend resources. The node closes its backend on
	// every exit; a mapped blob is unmapped by its caller after that.
	Close() error
}

// ramBackend serves compressed objects straight from the partition blobs
// it was given, heap or mapped: the paper's RAM back end, and its SSD
// back end when the blob is a mapped file. Entries alias the blob; no
// bytes are copied at ingest or Get.
type ramBackend struct {
	mu      sync.RWMutex
	objects map[string]ramObject
}

type ramObject struct {
	compressorID uint16
	data         []byte
}

// NewRAMBackend builds an empty RAM backend.
func NewRAMBackend() Backend {
	return &ramBackend{objects: make(map[string]ramObject)}
}

func (b *ramBackend) AddPartition(blob []byte, part *pack.Partition) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := range part.Entries {
		e := &part.Entries[i]
		b.objects[cleanPath(e.Path)] = ramObject{compressorID: e.CompressorID, data: e.Data}
	}
	return nil
}

func (b *ramBackend) Get(path string) (uint16, []byte, error) {
	b.mu.RLock()
	o, ok := b.objects[path]
	b.mu.RUnlock()
	if !ok {
		return 0, nil, fmt.Errorf("%w: %s (ram backend)", ErrNotExist, path)
	}
	return o.compressorID, o.data, nil
}

func (b *ramBackend) Peek(path string) (uint16, []byte, bool) {
	b.mu.RLock()
	o, ok := b.objects[path]
	b.mu.RUnlock()
	return o.compressorID, o.data, ok
}

func (b *ramBackend) Contains(path string) bool {
	b.mu.RLock()
	_, ok := b.objects[path]
	b.mu.RUnlock()
	return ok
}

func (b *ramBackend) Remove(paths []string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, p := range paths {
		delete(b.objects, cleanPath(p))
	}
}

func (b *ramBackend) Len() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.objects)
}

func (b *ramBackend) Close() error { return nil }
