//go:build race

package stallcheck

// raceDetector is true in -race builds, whose machine code is instrumented.
const raceDetector = true
