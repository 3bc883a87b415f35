//go:build race

package mail

// raceDetector: under the race detector sync.Pool drops a quarter of what it
// is given, so which slot a deposit draws is not to be relied on.
const raceDetector = true
