//go:build race

package prefetch

// raceDetectorEnabled reports whether this test binary runs under the
// race detector, which randomly drops sync.Pool puts — making
// pool-determinism assertions meaningless there.
const raceDetectorEnabled = true
