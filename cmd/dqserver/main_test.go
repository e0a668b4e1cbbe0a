package main

import (
	"flag"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"dynq"
)

// TestValidateFlags pins the up-front flag rules: bad combinations must
// fail before any index is built, with messages naming the fix.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		path    string
		shards  int
		wal     bool
		wantErr string // substring; empty = valid
	}{
		{name: "synthetic defaults", shards: 1},
		{name: "synthetic sharded", shards: 8},
		{name: "db single", path: "x.dynq", shards: 1},
		{name: "db sharded", path: "x.dynq", shards: 4},
		{name: "db sharded wal", path: "x.dynq", shards: 4, wal: true},
		{name: "db single wal", path: "x.dynq", shards: 1, wal: true},
		{name: "zero shards", shards: 0, wantErr: "-shards must be >= 1"},
		{name: "wal without db", shards: 1, wal: true, wantErr: "-wal requires -db"},
		{name: "wal without db sharded", shards: 4, wal: true, wantErr: "-wal requires -db"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateFlags(tc.path, tc.shards, tc.wal)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validateFlags(%q, %d, %v) = %v, want nil", tc.path, tc.shards, tc.wal, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("validateFlags(%q, %d, %v) = nil, want error containing %q", tc.path, tc.shards, tc.wal, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// TestOpenDBShardedDurable drives the server's open path end to end:
// -db X -shards N -wal creates a durable sharded database, and a second
// open recovers it with the data intact instead of truncating it; -db X
// -wal recovers a single file the same way.
func TestOpenDBShardedDurable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "srv.dynq")
	logger := discardLogger()

	db, rep, err := openDB(path, 0, 1, false, 4, true, 0, dynq.MaintenanceOptions{}, logger)
	if err != nil {
		t.Fatal(err)
	}
	if rep != nil {
		t.Errorf("fresh create returned a recovery report: %+v", rep)
	}
	if db.Shards() != 4 {
		t.Fatalf("openDB served %d shards, want 4", db.Shards())
	}
	if !db.WALArmed() {
		t.Fatal("-wal did not arm the per-shard logs")
	}
	seg := dynq.Segment{T0: 0, T1: 1, From: []float64{1, 1}, To: []float64{2, 2}}
	if err := db.Insert(42, seg); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: recovery path, contents preserved, report merged.
	db2, rep2, err := openDB(path, 0, 1, false, 4, true, 0, dynq.MaintenanceOptions{}, logger)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if rep2 == nil {
		t.Fatal("reopen returned no merged recovery report")
	}
	rs, err := db2.Snapshot(dynq.Rect{Min: []float64{0, 0}, Max: []float64{3, 3}}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].ID != 42 {
		t.Fatalf("reopen lost the inserted segment: %v", rs)
	}

	// A mismatched shard count is refused cleanly, the single file too.
	for _, shards := range []int{2, 1} {
		if _, _, err := openDB(path, 0, 1, false, shards, true, 0, dynq.MaintenanceOptions{}, logger); err == nil {
			t.Fatalf("reopen with -shards %d succeeded", shards)
		} else if !strings.Contains(err.Error(), "shard count") {
			t.Fatalf("-shards %d: wrong-count error should explain the shard-count rule, got: %v", shards, err)
		}
	}

	// The single file takes the same recovering open: -db X -wal on a file
	// dqload built arms the "<X>.wal" sidecar, and a restart replays the
	// unsynced write from it.
	path = filepath.Join(t.TempDir(), "single.dynq")
	seed, err := dynq.Open(dynq.Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Close(); err != nil {
		t.Fatal(err)
	}
	for pass, want := range []int{0, 1} {
		db, rep, err := openDB(path, 0, 1, false, 1, true, 0, dynq.MaintenanceOptions{}, logger)
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if db.Shards() != 1 || !db.WALArmed() || rep == nil || !rep.WALArmed {
			t.Fatalf("pass %d: %d shards, WAL armed %v, report %v; want the single file with its log", pass, db.Shards(), db.WALArmed(), rep)
		}
		if db.Len() != want || rep.WALUpdatesReplayed != want {
			t.Fatalf("pass %d: %d segments (%d replayed), want %d", pass, db.Len(), rep.WALUpdatesReplayed, want)
		}
		if pass == 0 {
			if err := db.Insert(42, seg); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Close(); err != nil { // no Sync: the write lives in the log only
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(path + ".wal"); err != nil {
		t.Fatalf("sidecar missing: %v", err)
	}
}

// TestOpenDBShardedKeepsTreeShape: a fresh -db X -shards N -wal -dual
// database gets the dual-time-axis tree (internal fanout 113, not 145),
// and a reopen recovers that shape from the files.
func TestOpenDBShardedKeepsTreeShape(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dual.dynq")
	for _, pass := range []string{"fresh", "reopen"} {
		db, _, err := openDB(path, 0, 1, true, 2, true, 0, dynq.MaintenanceOptions{}, discardLogger())
		if err != nil {
			t.Fatalf("%s: %v", pass, err)
		}
		st, err := db.Stats()
		if err != nil {
			t.Fatalf("%s: %v", pass, err)
		}
		if st.IntFanout != 113 {
			t.Errorf("%s: internal fanout %d, want 113 (dual time axes)", pass, st.IntFanout)
		}
		if err := db.Close(); err != nil {
			t.Fatalf("%s: %v", pass, err)
		}
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
// directions: every dqserver flag has a row, and every row that names
// dqserver names a flag the binary has.
func TestFlagsMatchREADME(t *testing.T) {
	documented := readmeFlags(t, "dqserver")
	fs := newFlags(&options{})
	fs.VisitAll(func(f *flag.Flag) {
		if !documented[f.Name] {
			t.Errorf("flag -%s has no row naming dqserver in README.md's flag tables", f.Name)
		}
	})
	for n := range documented {
		if fs.Lookup(n) == nil {
			t.Errorf("README.md documents -%s for dqserver, which has no such flag", n)
		}
	}
}
