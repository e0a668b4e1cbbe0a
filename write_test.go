package dynq

import (
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dynq/internal/obs"
)

func seg2(t0, t1, x, y float64) Segment {
	return Segment{T0: t0, T1: t1, From: []float64{x, y}, To: []float64{x + 1, y + 1}}
}

func TestApplyUpdatesBatchSemantics(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// Order matters: insert, delete, reinsert of the same object in one
	// batch must leave exactly one segment.
	batch := []MotionUpdate{
		{ID: 1, Segment: seg2(0, 10, 5, 5)},
		{ID: 2, Segment: seg2(0, 10, 20, 20)},
		{ID: 1, Segment: Segment{T0: 0}, Delete: true},
		{ID: 1, Segment: seg2(0, 10, 6, 6)},
	}
	if err := db.ApplyUpdates(context.Background(), batch, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	if db.Len() != 2 {
		t.Fatalf("Len = %d after batch, want 2", db.Len())
	}
	// Empty batch is a no-op.
	if err := db.ApplyUpdates(context.Background(), nil, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	// Deleting a missing segment fails the batch with ErrNotFound.
	err = db.ApplyUpdates(context.Background(),
		[]MotionUpdate{{ID: 99, Segment: Segment{T0: 3}, Delete: true}}, WriteOptions{})
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete of missing segment: %v, want ErrNotFound", err)
	}
	// A bad update is rejected upfront, before anything applies.
	err = db.ApplyUpdates(context.Background(), []MotionUpdate{
		{ID: 3, Segment: seg2(0, 10, 1, 1)},
		{ID: 4, Segment: Segment{T0: 5, T1: 1, From: []float64{0, 0}, To: []float64{0, 0}}},
	}, WriteOptions{})
	if err == nil {
		t.Fatal("batch with an invalid segment was accepted")
	}
	if db.Len() != 2 {
		t.Fatalf("failed validation applied a prefix: Len = %d, want 2", db.Len())
	}
	// A canceled context is honored before the batch applies.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = db.ApplyUpdates(ctx, []MotionUpdate{{ID: 5, Segment: seg2(0, 1, 0, 0)}}, WriteOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled context: %v", err)
	}
}

func TestEncodeDecodeUpdatesRoundTrip(t *testing.T) {
	in := []MotionUpdate{
		{ID: 7, Segment: seg2(1, 2, 3, 4)},
		{ID: 8, Segment: Segment{T0: 2.5}, Delete: true},
		{ID: 9, Segment: seg2(0, 100, -5, 12.25)},
	}
	out, err := decodeUpdates(encodeUpdates(2, in), 2)
	if err != nil {
		t.Fatal(err)
	}
	// Delete entries round-trip only ID and T0 by design.
	want := append([]MotionUpdate(nil), in...)
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", out, want)
	}
	// Dimensionality mismatch is rejected.
	if _, err := decodeUpdates(encodeUpdates(2, in), 3); err == nil {
		t.Fatal("dims mismatch accepted")
	}
	// Truncation is rejected.
	b := encodeUpdates(2, in)
	if _, err := decodeUpdates(b[:len(b)-3], 2); err == nil {
		t.Fatal("truncated payload accepted")
	}
	// Trailing garbage is rejected.
	if _, err := decodeUpdates(append(b, 0xFF), 2); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// An inflated count claim is rejected by the minimum-size bound
	// before it can drive a huge pre-allocation.
	inflated := append([]byte(nil), b...)
	binary.LittleEndian.PutUint32(inflated[2:], uint32(len(inflated))) // > (len-6)/17, old bound passed it
	if _, err := decodeUpdates(inflated, 2); err == nil {
		t.Fatal("inflated update count accepted")
	}
}

// TestWALRecoverReplaysUnsyncedWrites is the core durability round trip:
// writes acknowledged at each durability level, a hard crash with no
// Sync, and a recovering open that must replay the log back to the
// exact same answers.
func TestWALRecoverReplaysUnsyncedWrites(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.dynq")
	db, err := Open(Options{Path: path, WALPath: path + ".wal"})
	if err != nil {
		t.Fatal(err)
	}
	// A checkpointed base state.
	if err := db.Insert(1, seg2(0, 10, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint writes at each durability level, never synced to
	// the page file.
	writes := []struct {
		d  Durability
		id ObjectID
	}{
		{DurabilityGroupCommit, 2},
		{DurabilitySync, 3},
		{DurabilityAsync, 4},
		{DurabilityGroupCommit, 5},
	}
	for _, w := range writes {
		err := db.ApplyUpdates(context.Background(),
			[]MotionUpdate{{ID: w.id, Segment: seg2(0, 10, float64(w.id), float64(w.id))}},
			WriteOptions{Durability: w.d})
		if err != nil {
			t.Fatalf("write %d: %v", w.id, err)
		}
	}
	// And a delete, so replay exercises both directions.
	if err := db.Delete(2, 0); err != nil {
		t.Fatal(err)
	}
	// 6 appends: the pre-checkpoint base insert also logged before Sync
	// truncated it away, then 4 writes + 1 delete after the checkpoint.
	if st := db.logs[0].Stats(); st.Appends != 6 {
		t.Fatalf("wal stats = %+v; want 6 appends", st)
	}
	if err := db.crash(); err != nil {
		t.Fatal(err)
	}

	rdb, rep, err := OpenFileRecover(path)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer rdb.Close()
	if !rep.WALArmed {
		t.Fatal("sidecar wal not auto-detected")
	}
	if rep.WALRecordsReplayed != 5 || rep.WALUpdatesReplayed != 5 {
		t.Fatalf("replayed %d records / %d updates, want 5/5 (%s)",
			rep.WALRecordsReplayed, rep.WALUpdatesReplayed, rep)
	}
	if rep.WALTornTail {
		t.Fatalf("clean crash reported a torn tail: %s", rep)
	}
	if rdb.Len() != 4 { // 1 base + 4 inserts - 1 delete
		t.Fatalf("recovered Len = %d, want 4", rdb.Len())
	}
	rs, err := rdb.Snapshot(Rect{Min: []float64{0, 0}, Max: []float64{10, 10}}, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	ids := map[ObjectID]bool{}
	for _, r := range rs {
		ids[r.ID] = true
	}
	if !ids[1] || ids[2] || !ids[3] || !ids[4] || !ids[5] {
		t.Fatalf("recovered answer wrong: %v", rs)
	}

	// The recovered database keeps logging: another write, another
	// crash, another exact recovery.
	if err := rdb.ApplyUpdates(context.Background(), []MotionUpdate{{ID: 6, Segment: seg2(0, 10, 6, 6)}}, WriteOptions{Durability: DurabilitySync}); err != nil {
		t.Fatal(err)
	}
	if err := rdb.crash(); err != nil {
		t.Fatal(err)
	}
	rdb2, rep2, err := OpenFileRecover(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rdb2.Close()
	if rdb2.Len() != 5 {
		t.Fatalf("second recovery Len = %d, want 5 (%s)", rdb2.Len(), rep2)
	}
}

// TestWALCheckpointBoundsReplay: after Sync, the log is truncated and a
// crash replays only post-checkpoint records.
func TestWALCheckpointBoundsReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.dynq")
	db, err := Open(Options{Path: path, WALPath: path + ".wal"})
	if err != nil {
		t.Fatal(err)
	}
	for i := ObjectID(1); i <= 8; i++ {
		if err := db.Insert(i, seg2(0, 10, float64(i), float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert(9, seg2(0, 10, 9, 9)); err != nil {
		t.Fatal(err)
	}
	if err := db.crash(); err != nil {
		t.Fatal(err)
	}
	rdb, rep, err := OpenFileRecover(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	if rep.WALRecordsReplayed != 1 {
		t.Fatalf("replayed %d records, want 1 (only the post-checkpoint insert): %s",
			rep.WALRecordsReplayed, rep)
	}
	if rdb.Len() != 9 {
		t.Fatalf("Len = %d, want 9", rdb.Len())
	}
}

// TestWALTornTailRecovery tears the final (unacknowledged) record and
// verifies recovery discards it, keeps everything acknowledged, and the
// next write sequence is clean.
func TestWALTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "torn.dynq")
	walPath := path + ".wal"
	db, err := Open(Options{Path: path, WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ApplyUpdates(context.Background(), []MotionUpdate{{ID: 1, Segment: seg2(0, 10, 1, 1)}}, WriteOptions{Durability: DurabilitySync}); err != nil {
		t.Fatal(err)
	}
	acked, err := fileSize(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// An async write the crash will tear mid-record.
	if err := db.ApplyUpdates(context.Background(), []MotionUpdate{{ID: 2, Segment: seg2(0, 10, 2, 2)}}, WriteOptions{Durability: DurabilityAsync}); err != nil {
		t.Fatal(err)
	}
	if err := db.crash(); err != nil {
		t.Fatal(err)
	}
	total, err := fileSize(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if total <= acked {
		t.Fatalf("async append did not grow the log (%d <= %d)", total, acked)
	}
	f, err := os.OpenFile(walPath, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(total - 5); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rdb, rep, err := OpenFileRecover(path)
	if err != nil {
		t.Fatalf("recover after torn tail: %v", err)
	}
	defer rdb.Close()
	if !rep.WALTornTail {
		t.Fatalf("torn tail not reported: %s", rep)
	}
	if rdb.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (acked insert only)", rdb.Len())
	}
	// The torn bytes were discarded physically: a new write appends at
	// the clean boundary and survives the next crash.
	if err := rdb.ApplyUpdates(context.Background(), []MotionUpdate{{ID: 3, Segment: seg2(0, 10, 3, 3)}}, WriteOptions{Durability: DurabilitySync}); err != nil {
		t.Fatal(err)
	}
	if err := rdb.crash(); err != nil {
		t.Fatal(err)
	}
	rdb2, _, err := OpenFileRecover(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rdb2.Close()
	if rdb2.Len() != 2 {
		t.Fatalf("post-tear write lost: Len = %d, want 2", rdb2.Len())
	}
}

// TestSyncFailureWithWALDegradesImmediately is the regression test for
// the Flush/Sync failure path: with a WAL armed, a failed checkpoint
// must journal a sync_failure event and trip read-only mode at once —
// not feed the consecutive-failure counter while the log grows.
func TestSyncFailureWithWALDegradesImmediately(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fail.dynq")
	if err := rebuildFile(path, nil, 0); err != nil {
		t.Fatal(err)
	}
	// A DB with a scripted FaultStore between tree and file, plus an
	// armed WAL — the configuration where a failed checkpoint must not
	// be retried silently.
	db, _, faults, err := openChaos(path, 0, MaintenanceOptions{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Insert(1, seg2(0, 10, 1, 1)); err != nil {
		t.Fatal(err)
	}
	faults.ArmSyncs(1)

	before := obs.DefaultJournal().Total()
	if err := db.Sync(); err == nil {
		t.Fatal("Sync with injected fault succeeded")
	}
	if !db.Degraded() {
		t.Fatal("database not degraded after one failed Sync with WAL armed")
	}
	if err := db.Insert(2, seg2(0, 10, 2, 2)); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("write after degrade: %v, want ErrReadOnly", err)
	}
	found := false
	for _, e := range obs.DefaultJournal().Since(before) {
		if e.Type == obs.EventSyncFailure {
			found = true
		}
	}
	if !found {
		t.Fatalf("no %s event journaled by the failed checkpoint", obs.EventSyncFailure)
	}

	// Without a WAL the same single failure only feeds the
	// consecutive-failure counter; the database stays writable.
	path2 := filepath.Join(dir, "nowal.dynq")
	if err := rebuildFile(path2, nil, 0); err != nil {
		t.Fatal(err)
	}
	db2, fs2, faults2, err := openFaulted(path2, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	if err := db2.Insert(1, seg2(0, 10, 1, 1)); err != nil {
		t.Fatal(err)
	}
	faults2.ArmSyncs(1)
	if err := db2.Sync(); err == nil {
		t.Fatal("Sync with injected fault succeeded")
	}
	if db2.Degraded() {
		t.Fatal("single Sync failure without WAL degraded immediately")
	}
}

// TestOpenShardedRejectsWAL: a sharded database has one log per shard,
// so the single-log WALPath knob must fail loudly (pointing at
// ShardOptions.WAL) rather than silently dropping durability.
func TestOpenShardedRejectsWAL(t *testing.T) {
	opts := ShardOptions{Shards: 2}
	opts.WALPath = "somewhere.wal"
	if _, err := OpenSharded(opts); err == nil {
		t.Fatal("OpenSharded accepted a WALPath")
	}
}

// TestOpenRejectsUnrecoverableWAL: a log no reopen can replay — one with
// no page file beside it, or one away from the "<Path>.wal" sidecar the
// recovering open finds — would acknowledge writes as durable that are
// lost at the next restart. Open refuses both before creating any file.
func TestOpenRejectsUnrecoverableWAL(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.dynq")
	for name, opts := range map[string]Options{
		"no page file":  {WALPath: path + ".wal"},
		"other sidecar": {Path: path, WALPath: filepath.Join(dir, "elsewhere.wal")},
	} {
		if db, err := Open(opts); err == nil {
			db.Close()
			t.Errorf("%s: Open accepted WALPath %q with Path %q", name, opts.WALPath, opts.Path)
		}
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*")); len(left) != 0 {
		t.Fatalf("refused opens created files: %v", left)
	}
}

// TestWALSoakSmoke runs a short WALSoak as a unit test; the full run is
// dqbench -faults -wal.
func TestWALSoakSmoke(t *testing.T) {
	rep, err := WALSoak(WALSoakOptions{Cycles: 12, Seed: 7, Batch: 16, Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("soak harness error: %v (%s)", err, rep)
	}
	if rep.LostAcked != 0 {
		t.Fatalf("acknowledged writes lost: %s", rep)
	}
	if rep.WrongAnswers != 0 {
		t.Fatalf("wrong answers after replay: %s", rep)
	}
	if rep.Tears == 0 || rep.QueriesCompared == 0 {
		t.Fatalf("soak exercised nothing: %s", rep)
	}
}

// TestFailedBatchNotReplayed: a batch the caller saw fail with
// ErrNotFound must never be WAL-logged — crash recovery must not
// resurrect any part of it, or the durable state diverges from what was
// acknowledged.
func TestFailedBatchNotReplayed(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "faildel.dynq")
	db, err := Open(Options{Path: path, WALPath: path + ".wal"})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := db.Insert(1, seg2(0, 10, 1, 1)); err != nil {
		t.Fatal(err)
	}
	// The delete of a missing segment fails the batch upfront: the
	// preceding insert in the same batch must not apply...
	err = db.ApplyUpdates(ctx, []MotionUpdate{
		{ID: 2, Segment: seg2(0, 10, 2, 2)},
		{ID: 3, Segment: Segment{T0: 5}, Delete: true},
	}, WriteOptions{})
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("batch with missing delete: %v, want ErrNotFound", err)
	}
	if db.Len() != 1 {
		t.Fatalf("failed batch applied a prefix: Len = %d, want 1", db.Len())
	}
	// ...and a double delete of the index's only copy fails the same way.
	err = db.ApplyUpdates(ctx, []MotionUpdate{
		{ID: 1, Segment: Segment{T0: 0}, Delete: true},
		{ID: 1, Segment: Segment{T0: 0}, Delete: true},
	}, WriteOptions{})
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v, want ErrNotFound", err)
	}
	if db.Len() != 1 {
		t.Fatalf("failed double delete applied a prefix: Len = %d, want 1", db.Len())
	}
	// A delete consuming an insert earlier in the same batch still passes.
	err = db.ApplyUpdates(ctx, []MotionUpdate{
		{ID: 4, Segment: seg2(0, 10, 4, 4)},
		{ID: 4, Segment: Segment{T0: 0}, Delete: true},
	}, WriteOptions{})
	if err != nil {
		t.Fatalf("in-batch insert+delete rejected: %v", err)
	}

	if err := db.crash(); err != nil {
		t.Fatal(err)
	}
	rdb, rep, err := OpenFileRecover(path)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer rdb.Close()
	// Replay sees the first insert and the in-batch insert+delete record
	// — nothing from the two failed batches.
	if rep.WALRecordsReplayed != 2 {
		t.Fatalf("replayed %d records, want 2 (%s)", rep.WALRecordsReplayed, rep)
	}
	if rdb.Len() != 1 {
		t.Fatalf("recovered Len = %d, want 1", rdb.Len())
	}
	rs, err := rdb.Snapshot(Rect{Min: []float64{0, 0}, Max: []float64{10, 10}}, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].ID != 1 {
		t.Fatalf("recovered answer = %v, want exactly object 1", rs)
	}
}
