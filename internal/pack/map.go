package pack

import (
	"fmt"
	"io/fs"
	"math"
	"os"
)

// Map returns the packed partition file at path as one read-only blob
// for Mount or MountElastic. On unix the file is mapped (mmap, PROT_READ,
// MAP_SHARED), so the blob is not in the Go heap: its pages come in from
// disk on first touch and are shared with the page cache, which makes
// the file itself the node-local store, the paper's SSD back end
// (§IV-C1), and a write through the blob faults. Elsewhere the file is
// read into memory.
//
// Two rules bind the caller. The file must not change while a node
// serves from the blob: a truncated mapping faults its readers. And
// unmap may run only after every node holding the blob has returned
// from Close or LeaveCluster; until then a peer may still be sent its
// bytes.
func Map(path string) (blob []byte, unmap func() error, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("pack: map: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, nil, fmt.Errorf("pack: map: %w", err)
	}
	n, err := mapLen(path, fi.Mode(), fi.Size(), math.MaxInt)
	if err != nil {
		return nil, nil, err
	}
	if blob, unmap, err = mapFile(f, n); err != nil {
		return nil, nil, fmt.Errorf("pack: map %s: %w", path, err)
	}
	return blob, unmap, nil
}

// mapLen is the blob length of a file of this mode and size, or why it
// cannot be one: it must be a regular file, non-empty (mmap of length 0
// is EINVAL, and no partition is empty), and no longer than maxLen, the
// longest slice the platform's int allows.
func mapLen(path string, mode fs.FileMode, size, maxLen int64) (int, error) {
	switch {
	case !mode.IsRegular():
		return 0, fmt.Errorf("pack: map %s: not a regular file (%v)", path, mode.Type())
	case size == 0:
		return 0, fmt.Errorf("pack: map %s: empty file", path)
	case size > maxLen:
		return 0, fmt.Errorf("pack: map %s: %d bytes do not fit in one blob", path, size)
	}
	return int(size), nil
}
