//go:build soak

package fanstore

import (
	"testing"
	"time"

	"fanstore/internal/dataset"
	"fanstore/internal/mpi"
)

// TestSoakCloseAfterSilentDeath: a member of a three-node elastic cluster
// fail-stops and nobody marks it dead, so the coordinator never collects
// every bye. The survivors' Close must still return once the bye timeout
// (60 s, which is why this lives behind the soak tag) has passed, and
// leave nothing behind. Run by `make soak`.
func TestSoakCloseAfterSilentDeath(t *testing.T) {
	bundle, want := buildBundle(t, dataset.ImageNet, 12, 6, 2<<10, nil)
	runLifecycle(t, 3, false, func(c *mpi.Comm, x *exited) error {
		parts := [][]byte{bundle.Scatter[2*c.Rank()], bundle.Scatter[2*c.Rank()+1]}
		node, err := MountElastic(c, parts, ElasticOptions{Options: x.options()})
		if err != nil {
			return err
		}
		x.node = node
		if err := readAll(node, want); err != nil {
			return err
		}
		// Nobody may die while a peer still reads from it.
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 2 {
			node.FailStop()
			return nil
		}
		x.survivor = true
		start := time.Now()
		err = node.Close()
		if d := time.Since(start); d < 55*time.Second || d > 90*time.Second {
			t.Errorf("rank %d: Close returned after %v, want the 60 s bye timeout", c.Rank(), d)
		}
		return err
	})
}
