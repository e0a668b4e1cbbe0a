//go:build race

package netq

// raceEnabled is true in -race builds, whose instrumentation moves to the
// heap values that escape analysis otherwise keeps on the stack (the
// buffers trace-id generation fills), so allocation counts differ.
const raceEnabled = true
