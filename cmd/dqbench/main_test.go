package main

import (
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestValidate pins the up-front flag rules: a flag the selected mode
// would ignore must fail naming it, never run a weaker soak.
func TestValidate(t *testing.T) {
	cases := []struct {
		args    string
		wantErr string // substring; empty = valid
	}{
		{args: ""},
		{args: "-fig 6 -scale 0.05 -trajectories 5 -seed 2 -csv"},
		{args: "-mixed -json out.json -compare base.json -log-level debug"},
		{args: "-faults 100 -fault-seed 1"},
		{args: "-faults 100 -wal -fault-seed 1 -log-format json"},
		{args: "-faults 100 -wal -shards 4"},
		{args: "-faults 60 -wal -chaos"},
		{args: "-faults 0"},
		{args: "-faults 60 -chaos", wantErr: "-chaos needs -wal"},
		{args: "-wal", wantErr: "-wal needs -faults"},
		{args: "-chaos -wal", wantErr: "needs -faults"},
		{args: "-fault-seed 7", wantErr: "-fault-seed needs -faults"},
		{args: "-shards 4 -scale 0.05", wantErr: "-shards needs -faults"},
		{args: "-faults 0 -wal", wantErr: "-wal needs -faults"},
		{args: "-faults 100 -shards 4", wantErr: "-shards needs -wal"},
		{args: "-faults 60 -wal -chaos -shards 4", wantErr: "-shards is ignored by -chaos"},
		{args: "-faults 100 -wal -shards -1", wantErr: "-shards must be >= 1"},
		{args: "-faults 100 -compare base.json", wantErr: "-compare is ignored by the -faults soak"},
		{args: "-faults 100 -wal -fig 6", wantErr: "-fig is ignored by the -faults soak"},
	}
	for _, tc := range cases {
		t.Run(tc.args, func(t *testing.T) {
			var o options
			fs := newFlags(&o)
			if err := fs.Parse(strings.Fields(tc.args)); err != nil {
				t.Fatal(err)
			}
			err := validate(fs, &o)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("validate = %v, want nil", err)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("validate = nil, want error containing %q", tc.wantErr)
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

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
