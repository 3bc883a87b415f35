//go:build race

package wire

// raceDetector: under the race detector sync.Pool drops a quarter of what it
// is given, so an allocation budget counted over pooled objects does not hold.
const raceDetector = true
