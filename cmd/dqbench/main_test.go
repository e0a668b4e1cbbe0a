package main

import (
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"
)

// readmeFlags returns the flags README.md's tables attribute to binary:
// every `-name` in the first cell of a row whose second cell names it.
func readmeFlags(t *testing.T, binary string) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile("(?m)^\\| (`-[^|]*) \\| ([^|]*) \\|")
	name := regexp.MustCompile(`(?:^|[\x60 ])-([a-z][a-z-]*)`)
	flags := make(map[string]bool)
	for _, m := range row.FindAllStringSubmatch(string(raw), -1) {
		if !strings.Contains(m[2], binary) {
			continue
		}
		for _, n := range name.FindAllStringSubmatch(m[1], -1) {
			flags[n[1]] = true
		}
	}
	return flags
}

// TestFlagsMatchREADME keeps README's flag tables honest in both
// directions: every dqbench flag has a row, and every row that names
// dqbench names a flag the binary has.
func TestFlagsMatchREADME(t *testing.T) {
	documented := readmeFlags(t, "dqbench")
	fs := newFlags(&options{})
	fs.VisitAll(func(f *flag.Flag) {
		if !documented[f.Name] {
			t.Errorf("flag -%s has no row naming dqbench in README.md's flag tables", f.Name)
		}
	})
	for n := range documented {
		if fs.Lookup(n) == nil {
			t.Errorf("README.md documents -%s for dqbench, which has no such flag", n)
		}
	}
}
