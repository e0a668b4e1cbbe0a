package dynq

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"dynq/internal/obs"
	"dynq/internal/pager"
	"dynq/internal/rtree"
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
	if err := db.ApplyUpdates(context.Background(), []MotionUpdate{{ID: 2, Segment: Segment{T0: 0}, Delete: true}}, WriteOptions{}); err != nil {
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

	rdb, rep, err := OpenFileRecoverWith(path, RecoverOptions{})
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
	rdb2, rep2, err := OpenFileRecoverWith(path, RecoverOptions{})
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
	rdb, rep, err := OpenFileRecoverWith(path, RecoverOptions{})
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

	rdb, rep, err := OpenFileRecoverWith(path, RecoverOptions{})
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
	rdb2, _, err := OpenFileRecoverWith(path, RecoverOptions{})
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
	if err := createFiles(singleLayout(path), 1, false, 0, nil); err != nil {
		t.Fatal(err)
	}
	// A DB with a scripted fault.Store between tree and file, plus an
	// armed WAL — the configuration where a failed checkpoint must not
	// be retried silently.
	db, faults, err := openFaulted(path, recoverSpec{forceWAL: true}, nil)
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
	if err := createFiles(singleLayout(path2), 1, false, 0, nil); err != nil {
		t.Fatal(err)
	}
	db2, faults2, err := openFaulted(path2, recoverSpec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
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
	rdb, rep, err := OpenFileRecoverWith(path, RecoverOptions{})
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

// A correction — a delete, then the reinsertion of the same object at the
// same start time — is looked up where the reinsertion starts. On a
// bulk-loaded dual-time file database shaped like the paper's (100k
// segments), with a buffer holding the whole tree so that every request
// counts the same whatever was evicted, the pool requests of each
// correction are counted against the same pair sent as two batches, whose
// delete has no reinsertion to probe with and searches by start time alone.
// The two databases edit their trees identically: only the lookups differ.
func TestCorrectionFindsWhereReplacementStarts(t *testing.T) {
	base := paperUpdates(t, 100_000, 1)
	open := func(name string) *DB {
		db := newTestDB(t, Options{DualTimeAxes: true, Path: filepath.Join(t.TempDir(), name), BufferPages: 4096})
		if err := db.BulkLoadUpdates(base); err != nil {
			t.Fatal(err)
		}
		if st := db.BufferStats(); st.Evictions != 0 {
			t.Fatalf("bulk load evicted %d frames: the buffer must hold the whole tree", st.Evictions)
		}
		return db
	}
	paired, split := open("paired"), open("split")
	requests := func(db *DB) int64 { st := db.BufferStats(); return st.Hits + st.Misses }
	r := rand.New(rand.NewSource(2))
	const pairs = 2000
	p0, s0 := requests(paired), requests(split)
	for i := 0; i < pairs; i++ {
		old := base[r.Intn(len(base))]
		fixed := old
		fixed.Segment.To = []float64{old.Segment.To[0] + r.NormFloat64()*0.5, old.Segment.To[1] + r.NormFloat64()*0.5}
		del := MotionUpdate{ID: old.ID, Segment: Segment{T0: old.Segment.T0}, Delete: true}
		if err := paired.ApplyUpdates(context.Background(), []MotionUpdate{del, fixed}, WriteOptions{}); err != nil {
			t.Fatal(err)
		}
		for _, u := range []MotionUpdate{del, fixed} {
			if err := split.ApplyUpdates(context.Background(), []MotionUpdate{u}, WriteOptions{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	withProbe := float64(requests(paired)-p0) / pairs
	without := float64(requests(split)-s0) / pairs
	t.Logf("pool requests per correction: %.3f looked up at the reinsertion's start, %.3f by start time alone", withProbe, without)
	if withProbe > without-1 {
		t.Errorf("a correction costs %.3f pool requests looked up at its reinsertion's start, %.3f by start time alone: want at least 1 fewer", withProbe, without)
	}
}

// correctionBatches turns n random segments of base into corrections, a
// delete and the reinsertion of the same object at the same T0, sixteen to
// a batch. move gives the reinsertion's end point.
func correctionBatches(base []MotionUpdate, n int, seed int64, move func(r *rand.Rand, s Segment) []float64) [][]MotionUpdate {
	r := rand.New(rand.NewSource(seed))
	var batches [][]MotionUpdate
	for i := 0; i < n; i += 16 {
		var batch []MotionUpdate
		for j := i; j < min(i+16, n); j++ {
			old := base[r.Intn(len(base))]
			fixed := old
			fixed.Segment.To = move(r, old.Segment)
			batch = append(batch, MotionUpdate{ID: old.ID, Segment: Segment{T0: old.Segment.T0}, Delete: true}, fixed)
		}
		batches = append(batches, batch)
	}
	return batches
}

// treePages reads every page of a one-unit database's tree, walking it
// from the root.
func treePages(t *testing.T, db *DB) map[pager.PageID]string {
	t.Helper()
	tree := db.units.Shard(0).Tree
	pages := map[pager.PageID]string{}
	var walk func(id pager.PageID)
	walk = func(id pager.PageID) {
		p, err := tree.Pool().Get(id)
		if err != nil {
			t.Fatal(err)
		}
		pages[id] = string(p)
		var children []pager.PageID
		err = tree.View(id, nil, func(v rtree.NodeView) error {
			for k := 0; !v.Leaf() && k < v.Len(); k++ {
				children = append(children, v.ChildID(k))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range children {
			walk(c)
		}
	}
	if root, _, ok := tree.Root(); ok {
		walk(root)
	}
	return pages
}

// Replay corrects as the live write did: whether a correction rewrites its
// entry in place or deletes and reinserts it depends on the tree and the
// update alone, not on the path the live write found. A logged database
// takes 20 000 inserts and then 2 000 corrections, most of them small
// moves, some far; it crashes with no checkpoint taken, and recovery
// replays the whole log. Every page of the tree is the live database's,
// stamps included.
func TestReplayedCorrectionsMatchLive(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corrections.dynq")
	db, err := Open(Options{Path: path, WALPath: path + ".wal", DualTimeAxes: true})
	if err != nil {
		t.Fatal(err)
	}
	base := paperUpdates(t, 20_000, 3)
	for i := 0; i < len(base); i += 500 {
		if err := db.ApplyUpdates(context.Background(), base[i:i+500], WriteOptions{Durability: DurabilityAsync}); err != nil {
			t.Fatal(err)
		}
	}
	batches := correctionBatches(base, 2000, 4, func(r *rand.Rand, s Segment) []float64 {
		step := 0.5
		if r.Intn(8) == 0 {
			step = 20
		}
		return []float64{s.To[0] + r.NormFloat64()*step, s.To[1] + r.NormFloat64()*step}
	})
	for _, b := range batches {
		if err := db.ApplyUpdates(context.Background(), b, WriteOptions{Durability: DurabilityAsync}); err != nil {
			t.Fatal(err)
		}
	}
	live := treePages(t, db)
	if err := db.crash(); err != nil {
		t.Fatal(err)
	}
	rdb, rep, err := OpenFileRecoverWith(path, RecoverOptions{})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer rdb.Close()
	if rep.WALUpdatesReplayed != len(base)+4000 {
		t.Fatalf("replayed %d updates, want %d (%s)", rep.WALUpdatesReplayed, len(base)+4000, rep)
	}
	got := treePages(t, rdb)
	if len(got) != len(live) {
		t.Fatalf("recovered tree has %d pages, the live one %d", len(got), len(live))
	}
	for id, p := range live {
		if got[id] != p {
			t.Fatalf("page %d differs between the live and the recovered tree", id)
		}
	}
}

// A correction whose new segment fits in its leaf's box writes one page
// per level of the tree: the path to the leaf, each node once. (A delete
// and an insert wrote two paths.) Every reinsertion here shrinks the old
// segment toward its start, so it lies inside the old one's box and fits
// by construction.
func TestCorrectionWritesOnePath(t *testing.T) {
	db := newTestDB(t, Options{DualTimeAxes: true})
	base := paperUpdates(t, 20_000, 5)
	if err := db.BulkLoadUpdates(base); err != nil {
		t.Fatal(err)
	}
	st, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Height < 3 {
		t.Fatalf("height %d: too short to tell one path from two", st.Height)
	}
	const corrections = 500
	batches := correctionBatches(base, corrections, 6, func(r *rand.Rand, s Segment) []float64 {
		f := r.Float64()
		return []float64{s.From[0] + f*(s.To[0]-s.From[0]), s.From[1] + f*(s.To[1]-s.From[1])}
	})
	before := db.CostSnapshot().PageWrites
	for _, b := range batches {
		if err := db.ApplyUpdates(context.Background(), b, WriteOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	writes := db.CostSnapshot().PageWrites - before
	if want := int64(corrections * st.Height); writes != want {
		t.Errorf("%d corrections on a tree of height %d wrote %d pages, want %d (%.2f per correction)", corrections, st.Height, writes, want, float64(writes)/corrections)
	}
}

// BenchmarkIngestWithSessions is what idle live predictive sessions cost
// the writer: a dual-time database of 50 000 bulk-loaded segments, S
// sessions with Live set, each over an 8×8 view at a random spot and
// fetched once, then plain inserts while no session is pulled. ns/op and
// B/op are per insert; each insert reaches every live session's inbox
// under the write lock. Run it as
//
//	go test -run '^$' -bench IngestWithSessions -benchmem -benchtime 20000x .
//
// for 20 000 inserts a case.
func BenchmarkIngestWithSessions(b *testing.B) {
	const loaded, fresh = 50000, 20000
	all := paperUpdates(b, loaded+fresh, 1)
	for _, sessions := range []int{0, 1, 16, 256} {
		b.Run(fmt.Sprintf("S=%d", sessions), func(b *testing.B) {
			db, err := Open(Options{DualTimeAxes: true})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			if err := db.BulkLoadUpdates(all[:loaded]); err != nil {
				b.Fatal(err)
			}
			r := rand.New(rand.NewSource(2))
			for range sessions {
				x, y, t0 := r.Float64()*92, r.Float64()*92, r.Float64()*90
				view := Rect{Min: []float64{x, y}, Max: []float64{x + 8, y + 8}}
				s, err := db.Predictive([]Waypoint{{T: t0, View: view}, {T: t0 + 10, View: view}}, PredictiveOptions{Live: true})
				if err != nil {
					b.Fatal(err)
				}
				defer s.Close()
				if _, err := s.Fetch(t0, t0+0.1); err != nil {
					b.Fatal(err)
				}
			}
			runtime.GC() // the set-up's garbage is no insert's cost
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u := all[loaded+i%fresh]
				// A later pass over the same segments inserts them under
				// new ids, so no insert repeats a stored key.
				if err := db.Insert(u.ID+ObjectID(i/fresh)<<32, u.Segment); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
