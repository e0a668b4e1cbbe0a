//go:build !race

package stallcheck

const raceDetector = false
