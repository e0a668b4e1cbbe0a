package dynq

import (
	"context"
	"dynq/internal/rtree"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func shardSeg(x float64) Segment {
	return Segment{T0: 0, T1: 10, From: []float64{x, x}, To: []float64{x + 1, x + 1}}
}

// shardBatch builds n insert updates with ids starting at base.
func shardBatch(base ObjectID, n int) []MotionUpdate {
	ups := make([]MotionUpdate, n)
	for i := range ups {
		ups[i] = MotionUpdate{ID: base + ObjectID(i), Segment: shardSeg(float64(base) + float64(i))}
	}
	return ups
}

// openShardedWAL creates a fresh WAL-armed sharded database for tests.
func openShardedWAL(t *testing.T, path string, shards int) *DB {
	t.Helper()
	db, err := OpenSharded(ShardOptions{
		Options: Options{Path: path},
		Shards:  shards,
		WAL:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestDurabilityRequiresWAL: requesting an explicit durability level
// against a WAL-less backend must fail with the typed ErrNoWAL instead
// of acking the write as durable — for both database flavors, while
// the adaptive default and explicit async still apply in memory.
func TestDurabilityRequiresWAL(t *testing.T) {
	mem, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	sharded, err := OpenSharded(ShardOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()

	for name, db := range map[string]Database{"single": mem, "sharded": sharded} {
		for _, d := range []Durability{DurabilityGroupCommit, DurabilitySync} {
			err := db.ApplyUpdates(context.Background(), shardBatch(1, 4), WriteOptions{Durability: d})
			if !errors.Is(err, ErrNoWAL) {
				t.Errorf("%s: durability %d without a WAL = %v, want ErrNoWAL", name, d, err)
			}
		}
		if db.Len() != 0 {
			t.Errorf("%s: rejected batch was partially applied", name)
		}
		for _, d := range []Durability{DurabilityDefault, DurabilityAsync} {
			if err := db.ApplyUpdates(context.Background(), shardBatch(ObjectID(100*int(d)+100), 4), WriteOptions{Durability: d}); err != nil {
				t.Errorf("%s: durability %d without a WAL = %v, want nil", name, d, err)
			}
		}
	}

	// With logs armed, every level is accepted.
	db := openShardedWAL(t, filepath.Join(t.TempDir(), "durable.dynq"), 2)
	defer db.Close()
	for _, d := range []Durability{DurabilityDefault, DurabilityGroupCommit, DurabilitySync, DurabilityAsync} {
		if err := db.ApplyUpdates(context.Background(), shardBatch(ObjectID(10*int(d)+1), 4), WriteOptions{Durability: d}); err != nil {
			t.Errorf("durability %d with WALs armed = %v, want nil", d, err)
		}
	}
}

// TestOpenShardedRefusesExistingFiles: creating over an existing shard
// set must refuse instead of truncating it (the destructive-reopen bug).
func TestOpenShardedRefusesExistingFiles(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.dynq")
	db, err := OpenSharded(ShardOptions{Options: Options{Path: path}, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ApplyUpdates(context.Background(), shardBatch(1, 8), WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenSharded(ShardOptions{Options: Options{Path: path}, Shards: 2}); err == nil {
		t.Fatal("OpenSharded truncated an existing shard set")
	} else if !strings.Contains(err.Error(), "OpenFileRecoverWith") {
		t.Fatalf("refusal should point at OpenFileRecoverWith, got: %v", err)
	}

	// The refused open must not have damaged the files.
	re, rep, err := OpenFileRecoverWith(path, RecoverOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 8 {
		t.Fatalf("reopen found %d segments, want 8", re.Len())
	}
	if rep == nil || len(re.recovery) != 2 {
		t.Fatal("recovering an existing set returned no reports")
	}
}

// TestOpenShardedRecoverNeedsFiles: recovering a set OpenSharded would
// create never creates one — a path with no shard files is
// os.ErrNotExist, exactly as for a single-file database, and leaves
// nothing behind.
func TestOpenShardedRecoverNeedsFiles(t *testing.T) {
	path := filepath.Join(t.TempDir(), "absent.dynq")
	if _, _, err := OpenFileRecoverWith(path, RecoverOptions{Shards: 2, WAL: true}); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("recovering an absent shard set: %v, want os.ErrNotExist", err)
	}
	if _, _, err := OpenFileRecoverWith(path, RecoverOptions{}); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("OpenFileRecoverWith on an absent path: %v, want os.ErrNotExist", err)
	}
	if left, _ := filepath.Glob(path + "*"); len(left) != 0 {
		t.Fatalf("refused opens left files behind: %v", left)
	}
}

// TestOpenShardedRecoverPreservesContents: the round trip that used to
// lose everything — OpenSharded, write, sync, close, recover — must
// preserve every shard's contents, with and without logs.
func TestOpenShardedRecoverPreservesContents(t *testing.T) {
	for _, withWAL := range []bool{false, true} {
		t.Run(fmt.Sprintf("wal=%v", withWAL), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "db.dynq")
			db, err := OpenSharded(ShardOptions{Options: Options{Path: path}, Shards: 3, WAL: withWAL})
			if err != nil {
				t.Fatal(err)
			}
			if err := db.ApplyUpdates(context.Background(), shardBatch(1, 64), WriteOptions{}); err != nil {
				t.Fatal(err)
			}
			if err := db.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			re, _, err := OpenFileRecoverWith(path, RecoverOptions{Shards: 3})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if re.Len() != 64 {
				t.Fatalf("reopen found %d segments, want 64", re.Len())
			}
			reps := re.recovery
			if len(reps) != 3 {
				t.Fatalf("got %d recovery reports, want 3", len(reps))
			}
			for i, rep := range reps {
				if rep.WALArmed != withWAL {
					t.Errorf("shard %d report WALArmed = %v, want %v", i, rep.WALArmed, withWAL)
				}
			}
			if re.WALArmed() != withWAL {
				t.Errorf("reopened WALArmed() = %v, want %v (auto-detect)", re.WALArmed(), withWAL)
			}
			rs, err := re.Snapshot(Rect{Min: []float64{0, 0}, Max: []float64{100, 100}}, 0, 10)
			if err != nil {
				t.Fatal(err)
			}
			if len(rs) != 64 {
				t.Fatalf("snapshot found %d results, want 64", len(rs))
			}
			if err := re.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestShardedWALCrashReplay: acked batches survive a crash (no final
// Sync) through per-shard log replay; each shard's report accounts for
// its own records.
func TestShardedWALCrashReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.dynq")
	db := openShardedWAL(t, path, 3)
	if err := db.ApplyUpdates(context.Background(), shardBatch(1, 48), WriteOptions{Durability: DurabilityGroupCommit}); err != nil {
		t.Fatal(err)
	}
	if err := db.crash(); err != nil {
		t.Fatal(err)
	}

	re, rep, err := OpenFileRecoverWith(path, RecoverOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 48 {
		t.Fatalf("recovered %d segments, want 48", re.Len())
	}
	replayed := 0
	for _, rep := range re.recovery {
		replayed += rep.WALUpdatesReplayed
	}
	if replayed != 48 || rep.WALUpdatesReplayed != 48 {
		t.Fatalf("reports account for %d replayed updates (merged: %d), want 48", replayed, rep.WALUpdatesReplayed)
	}
}

// TestShardedWALOneTornLog: one shard's log torn mid-record while its
// neighbors stay clean — the torn shard loses only its un-acked tail,
// the clean shards replay fully, and acked data survives everywhere.
func TestShardedWALOneTornLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.dynq")
	db := openShardedWAL(t, path, 3)

	// Acked phase: must survive any tear.
	if err := db.ApplyUpdates(context.Background(), shardBatch(1, 30), WriteOptions{Durability: DurabilitySync}); err != nil {
		t.Fatal(err)
	}
	ackedLen := db.Len()
	ackedSize, err := fileSize(shardLayout(path).log(0))
	if err != nil {
		t.Fatal(err)
	}

	// Async tail: find ids owned by shard 0 so the un-acked records land
	// in the log we are about to tear.
	var shard0 []MotionUpdate
	for id := ObjectID(1000); len(shard0) < 8; id++ {
		if db.units.ShardFor(rtree.ObjectID(id)) == 0 {
			shard0 = append(shard0, MotionUpdate{ID: id, Segment: shardSeg(float64(id % 97))})
		}
	}
	for _, u := range shard0 {
		if err := db.ApplyUpdates(context.Background(), []MotionUpdate{u}, WriteOptions{Durability: DurabilityAsync}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.crash(); err != nil {
		t.Fatal(err)
	}

	// Tear shard 0's log back into its un-acked region; leave 1 and 2.
	f, err := os.OpenFile(shardLayout(path).log(0), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	total, err := fileSize(shardLayout(path).log(0))
	if err != nil {
		t.Fatal(err)
	}
	if total <= ackedSize {
		t.Fatalf("async phase appended nothing to shard 0's log (%d <= %d)", total, ackedSize)
	}
	// Cut one byte off the final record: guaranteed mid-record, so the
	// reopen must discard a torn tail (a boundary-aligned cut would read
	// as a clean shorter log).
	if err := f.Truncate(total - 1); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re, _, err := OpenFileRecoverWith(path, RecoverOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	reps := re.recovery
	if re.Len() < ackedLen {
		t.Fatalf("recovered %d segments, want >= %d acked", re.Len(), ackedLen)
	}
	if !reps[0].WALTornTail {
		t.Error("shard 0's report should flag the torn tail")
	}
	if reps[1].WALTornTail || reps[2].WALTornTail {
		t.Error("clean shards flagged a torn tail")
	}
	if err := re.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedWALCheckpointLagDivergence: a checkpoint taken while only
// some shards have later writes leaves the logs at different lags;
// recovery must replay exactly each shard's own gap.
func TestShardedWALCheckpointLagDivergence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.dynq")
	db := openShardedWAL(t, path, 2)

	if err := db.ApplyUpdates(context.Background(), shardBatch(1, 20), WriteOptions{Durability: DurabilitySync}); err != nil {
		t.Fatal(err)
	}
	if err := db.Sync(); err != nil { // both logs checkpointed
		t.Fatal(err)
	}

	// Post-checkpoint writes routed to shard 0 only: its log diverges
	// from its checkpoint while shard 1's stays flush.
	var only0 []MotionUpdate
	for id := ObjectID(2000); len(only0) < 10; id++ {
		if db.units.ShardFor(rtree.ObjectID(id)) == 0 {
			only0 = append(only0, MotionUpdate{ID: id, Segment: shardSeg(float64(id % 89))})
		}
	}
	if err := db.ApplyUpdates(context.Background(), only0, WriteOptions{Durability: DurabilitySync}); err != nil {
		t.Fatal(err)
	}
	infos, ok := db.WALInfo()
	if !ok {
		t.Fatal("WALInfo reported no logs")
	}
	if infos[0].LiveRecords == 0 {
		t.Fatalf("shard 0 should lag its checkpoint: %+v", infos[0])
	}
	if infos[1].LiveRecords != 0 {
		t.Fatalf("shard 1 should be flush with its checkpoint: %+v", infos[1])
	}
	want := db.Len()
	if err := db.crash(); err != nil {
		t.Fatal(err)
	}

	re, _, err := OpenFileRecoverWith(path, RecoverOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	reps := re.recovery
	if re.Len() != want {
		t.Fatalf("recovered %d segments, want %d", re.Len(), want)
	}
	if reps[0].WALRecordsReplayed != 1 {
		t.Errorf("shard 0 replayed %d records, want 1 (its post-checkpoint batch)", reps[0].WALRecordsReplayed)
	}
	if reps[1].WALRecordsReplayed != 0 {
		t.Errorf("shard 1 replayed %d records, want 0 (checkpoint covered everything)", reps[1].WALRecordsReplayed)
	}
}

// TestShardedWALTelemetryAggregation: the per-shard logs fold into one
// WAL telemetry section with Logs saying how many, and the metrics
// registry carries {shard="i"}-labeled dynq_wal_* series.
func TestShardedWALTelemetryAggregation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.dynq")
	db := openShardedWAL(t, path, 2)
	defer db.Close()
	if err := db.ApplyUpdates(context.Background(), shardBatch(1, 32), WriteOptions{Durability: DurabilitySync}); err != nil {
		t.Fatal(err)
	}

	tel, ok := db.WALTelemetry(nil)
	if !ok {
		t.Fatal("WALTelemetry reported no logs on a WAL-armed database")
	}
	if tel.Logs != 2 {
		t.Errorf("telemetry Logs = %d, want 2", tel.Logs)
	}
	if tel.Appends == 0 || tel.Fsyncs == 0 {
		t.Errorf("aggregated counters empty after a sync batch: %+v", tel)
	}
	var wantAppends int64
	infos, _ := db.WALInfo()
	for _, info := range infos {
		wantAppends += int64(info.LastLSN)
	}
	if tel.LastLSN != uint64(wantAppends) {
		t.Errorf("aggregated LastLSN = %d, want the per-log sum %d", tel.LastLSN, wantAppends)
	}
}

// TestMergeRecoveryReports exercises the fold a recovering open of
// several units returns.
func TestMergeRecoveryReports(t *testing.T) {
	a := &RecoveryReport{HeaderSeq: 3, PagesChecked: 5, Segments: 10, WALArmed: true, WALRecordsReplayed: 2}
	b := &RecoveryReport{HeaderSeq: 7, PagesChecked: 4, Segments: 6, WALTornTail: true}
	if mergeReports([]*RecoveryReport{a}) != a {
		t.Error("one unit's report should come back as it is")
	}
	m := mergeReports([]*RecoveryReport{a, b})
	if m.HeaderSeq != 7 || m.PagesChecked != 9 || m.Segments != 16 {
		t.Errorf("merged counts wrong: %+v", m)
	}
	if !m.WALArmed || !m.WALTornTail || m.WALRecordsReplayed != 2 {
		t.Errorf("merged WAL flags wrong: %+v", m)
	}
}
