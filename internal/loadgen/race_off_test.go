//go:build !race

package loadgen

const raceDetector = false
