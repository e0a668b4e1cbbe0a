//go:build !race

package rtree

const raceDetector = false
