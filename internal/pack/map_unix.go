//go:build unix

package pack

import (
	"os"
	"syscall"
)

// mapFile maps the first n bytes of f read-only and shared. The mapping
// outlives f's descriptor.
func mapFile(f *os.File, n int) ([]byte, func() error, error) {
	blob, err := syscall.Mmap(int(f.Fd()), 0, n, syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, err
	}
	return blob, func() error { return syscall.Munmap(blob) }, nil
}
