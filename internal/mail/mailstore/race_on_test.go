//go:build race

package mailstore

// raceDetector: under the race detector sync.Pool drops a quarter of what it
// is given, so the slots mail carves are not all drawn.
const raceDetector = true
