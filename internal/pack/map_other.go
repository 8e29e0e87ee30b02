//go:build !unix

package pack

import (
	"io"
	"os"
)

// mapFile reads the first n bytes of f into memory, where the platform
// has no mmap; unmap has nothing to release.
func mapFile(f *os.File, n int) ([]byte, func() error, error) {
	blob := make([]byte, n)
	if _, err := io.ReadFull(f, blob); err != nil {
		return nil, nil, err
	}
	return blob, func() error { return nil }, nil
}
