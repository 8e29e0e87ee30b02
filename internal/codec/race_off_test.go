//go:build !race

package codec

const raceDetectorEnabled = false
