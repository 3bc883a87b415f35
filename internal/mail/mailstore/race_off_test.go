//go:build !race

package mailstore

const raceDetector = false
