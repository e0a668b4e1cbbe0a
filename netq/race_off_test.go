//go:build !race

package netq

const raceEnabled = false
