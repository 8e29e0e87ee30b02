//go:build soak

package fanstore

import "testing"

// TestSoakKillSchedules runs the kill-schedule runner over a long seed
// range, past the ci set, under every redundancy (about two seconds a
// seed and redundancy). Run by `make soak`.
func TestSoakKillSchedules(t *testing.T) {
	seeds := make([]uint64, 100)
	for i := range seeds {
		seeds[i] = uint64(len(schedCISeeds) + 1 + i)
	}
	runSchedules(t, seeds)
}
