//go:build race

package codec

// raceDetectorEnabled reports whether this test binary runs under the
// race detector, which randomly drops sync.Pool puts — making
// allocation-count assertions on the borrowed-scratch path meaningless
// there.
const raceDetectorEnabled = true
