//go:build race

package loadgen

// raceDetector: under the race detector sync.Pool drops a quarter of what it
// is given, so a budget that counts on released mailbox slots coming back
// needs headroom.
const raceDetector = true
