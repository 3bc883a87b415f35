//go:build !race

package mail

const raceDetector = false
