//go:build !race

package prefetch

// raceDetectorEnabled reports whether this test binary runs under the
// race detector (see race_on_test.go).
const raceDetectorEnabled = false
