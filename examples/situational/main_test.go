package main

import "testing"

// TestExampleRuns runs the example end to end: a log.Fatal in main exits
// the test binary non-zero, which fails the package.
func TestExampleRuns(t *testing.T) { main() }
