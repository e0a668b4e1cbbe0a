//go:build race

package pager

// raceEnabled is true in -race builds, where sync.Pool drops a share of
// what is put into it and allocation counts over pooled buffers mean
// nothing.
const raceEnabled = true
