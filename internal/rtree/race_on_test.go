//go:build race

package rtree

// raceDetector is true in -race builds. The byte-for-byte reference tests
// run on one goroutine: the detector has nothing to find in them and slows
// them tenfold, so they leave -race runs to the concurrent tests.
const raceDetector = true
