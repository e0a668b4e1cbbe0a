package dynq

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"dynq/internal/pager"
	"dynq/internal/rtree"
)

// unitState is what a portion that fails must leave as it found it on a
// one-unit file database: the first pages pages of the unit's file, read
// through its pool, the tree's root, level, size and modification
// sequence, and the log's last LSN. (A page the portion added to the file
// stays there, free, when the portion rolls back.)
func unitState(t *testing.T, db *DB, pages int) string {
	t.Helper()
	tree := db.units.Shard(0).Tree
	var b strings.Builder
	root, level, _ := tree.Root()
	fmt.Fprintf(&b, "root %d level %d size %d modSeq %d", root, level, tree.Size(), tree.ModSeq())
	if db.logs != nil {
		fmt.Fprintf(&b, " lsn %d", db.logs[0].LastLSN())
	}
	for id := 0; id < pages; id++ {
		p, err := tree.Pool().Get(pager.PageID(id))
		fmt.Fprintf(&b, "\n%d %v: ", id, err)
		b.Write(p)
	}
	return b.String()
}

// splitInserts is how many inserts splittingPortion piles on two spots.
const splitInserts = 160

// firstLeaf returns the keys of the entries of the unit's first leaf.
func firstLeaf(t *testing.T, db *DB) []MotionUpdate {
	t.Helper()
	tree := db.units.Shard(0).Tree
	id, level, ok := tree.Root()
	var keys []MotionUpdate
	for ; ok; level-- {
		err := tree.View(id, nil, func(v rtree.NodeView) error {
			if level > 0 {
				id = v.ChildID(0)
				return nil
			}
			for k := 0; k < v.Len(); k++ {
				oid, t0 := v.EntryKey(k)
				keys = append(keys, MotionUpdate{ID: ObjectID(oid), Segment: Segment{T0: t0}, Delete: true})
			}
			ok = false
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// splittingPortion is a portion that splits two leaves — 80 inserts of
// each of two boxes, more than a leaf at minimum fill has room for — and
// corrects segments of base, every other one moved far enough not to fit,
// followed by dels, deleted.
func splittingPortion(base []MotionUpdate, dels []MotionUpdate) []MotionUpdate {
	var p []MotionUpdate
	for i := 0; i < splitInserts; i++ {
		at := float64(20 + 30*(i%2))
		p = append(p, MotionUpdate{ID: ObjectID(1_000_000 + i), Segment: seg2(5, 6, at, at)})
	}
	for i := 0; i < 10; i++ {
		old := base[i*97%len(base)]
		fixed := old
		if i%2 == 1 {
			fixed.Segment.From = []float64{old.Segment.From[0] + 40, old.Segment.From[1]}
		}
		p = append(p, MotionUpdate{ID: old.ID, Segment: Segment{T0: old.Segment.T0}, Delete: true}, fixed)
	}
	return append(p, dels...)
}

// A portion that fails with ErrNotFound at any position — inserts that
// split a leaf, corrections that fit and that do not, deletes that
// dissolve a leaf before or after it — leaves every page of the file as it
// was, the tree's root, height, size and modification sequence too, tells
// no listener anything and logs nothing. The same portion without the
// missing delete then applies.
func TestFailedPortionRollsBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rollback.dynq")
	db := newTestDB(t, Options{Path: path, WALPath: path + ".wal"})
	base := paperUpdates(t, 3000, 7)
	if err := db.BulkLoadUpdates(base); err != nil {
		t.Fatal(err)
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	heard := 0
	db.units.Shard(0).Tree.OnUpdate(func(rtree.Update) { heard++ })
	portion := splittingPortion(base, firstLeaf(t, db)[:15])
	pages := db.units.Shard(0).Store().NumPages()
	before := unitState(t, db, pages)
	missing := MotionUpdate{ID: 1 << 40, Segment: Segment{T0: 1}, Delete: true}
	for pos := 0; pos <= len(portion); pos++ {
		batch := append(append(append([]MotionUpdate(nil), portion[:pos]...), missing), portion[pos:]...)
		if err := db.ApplyUpdates(context.Background(), batch, WriteOptions{}); !errors.Is(err, ErrNotFound) {
			t.Fatalf("missing delete at %d: %v, want ErrNotFound", pos, err)
		}
		if after := unitState(t, db, pages); after != before || heard != 0 {
			t.Fatalf("missing delete at %d: the unit changed (%d notifications)", pos, heard)
		}
	}
	if err := db.ApplyUpdates(context.Background(), portion, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	if db.Len() != len(base)+splitInserts-15 || heard == 0 {
		t.Fatalf("the whole portion: %d segments, %d notifications", db.Len(), heard)
	}
}

// A storage error at any write of a portion rolls the portion back. On a
// file read and written through no buffer, where every edit writes its
// page, one refused write at each position in turn leaves every page of
// the file as it was, and rolling back writes them. With a log armed, where
// pages stay buffered and only the allocations of a split reach the file,
// a refused allocation leaves the unit as it was and logs nothing, so a
// crash right after it recovers the database without the portion: the
// caller was told it failed, and replay must not bring it back.
func TestStorageErrorRollsBackPortion(t *testing.T) {
	base := paperUpdates(t, 1500, 8)
	segs := make([]soakSeg, len(base))
	for i, u := range base {
		segs[i] = soakSeg{u.ID, u.Segment}
	}
	for _, logged := range []bool{false, true} {
		path := filepath.Join(t.TempDir(), "faulted.dynq")
		if err := createFiles(singleLayout(path), 1, logged, 0, segs); err != nil {
			t.Fatal(err)
		}
		db, faults, err := openFaulted(path, recoverSpec{forceWAL: logged}, nil)
		if err != nil {
			t.Fatal(err)
		}
		heard := 0
		db.units.Shard(0).Tree.OnUpdate(func(rtree.Update) { heard++ })
		portion := splittingPortion(base, nil)
		pages := db.units.Shard(0).Store().NumPages()
		before := unitState(t, db, pages)
		failed := 0
		for k := int64(1); ; k++ {
			faults.ArmNoSpace(k, false)
			err := db.ApplyUpdates(context.Background(), portion, WriteOptions{})
			if !faults.NoSpaceArmed() {
				if !errors.Is(err, ErrDiskFull) {
					t.Fatalf("logged=%v: write %d refused, the portion returned %v", logged, k, err)
				}
				failed++
				db.SetReadOnly(false) // forget the failures, or the threshold refuses the next try
				if after := unitState(t, db, pages); after != before || heard != 0 {
					t.Fatalf("logged=%v: write %d refused: the unit changed (%d notifications)", logged, k, heard)
				}
				if !logged || failed > 1 {
					continue
				}
				// Crash right after the first refused write, recover, and
				// find the database as the portion found it.
				if err := db.crash(); err != nil {
					t.Fatal(err)
				}
				rdb, rep, err := OpenFileRecoverWith(path, RecoverOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if rdb.Len() != len(base) || rep.WALRecordsReplayed != 0 {
					t.Fatalf("recovered %d segments replaying %d records, want %d and none", rdb.Len(), rep.WALRecordsReplayed, len(base))
				}
				rdb.Close()
				if db, faults, err = openFaulted(path, recoverSpec{forceWAL: true}, nil); err != nil {
					t.Fatal(err)
				}
				db.units.Shard(0).Tree.OnUpdate(func(rtree.Update) { heard++ })
				continue
			}
			faults.DisarmNoSpace()
			if err != nil {
				t.Fatalf("logged=%v: past the last write: %v", logged, err)
			}
			break
		}
		if db.Len() != len(base)+splitInserts || failed < 2 {
			t.Fatalf("logged=%v: %d refused writes, then %d segments", logged, failed, db.Len())
		}
		t.Logf("logged=%v: rolled back at each of %d writes", logged, failed)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// A portion whose log append fails is rolled back: the unit is as it was
// and the log's last LSN has not moved. Once appends succeed again, the
// same portion applies.
func TestWALAppendFaultRollsBackPortion(t *testing.T) {
	base := paperUpdates(t, 1500, 9)
	segs := make([]soakSeg, len(base))
	for i, u := range base {
		segs[i] = soakSeg{u.ID, u.Segment}
	}
	path := filepath.Join(t.TempDir(), "walfault.dynq")
	if err := createFiles(singleLayout(path), 1, true, 0, segs); err != nil {
		t.Fatal(err)
	}
	refuse := true
	db, _, err := openFaulted(path, recoverSpec{forceWAL: true, walFault: func(op string) error {
		if refuse && op == "append" {
			return errors.New("injected append failure")
		}
		return nil
	}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	heard := 0
	db.units.Shard(0).Tree.OnUpdate(func(rtree.Update) { heard++ })
	portion := splittingPortion(base, nil)
	pages := db.units.Shard(0).Store().NumPages()
	before := unitState(t, db, pages)
	if err := db.ApplyUpdates(context.Background(), portion, WriteOptions{}); err == nil {
		t.Fatal("a portion whose append failed succeeded")
	}
	if after := unitState(t, db, pages); after != before || heard != 0 {
		t.Fatalf("the unit changed (%d notifications) although its append failed", heard)
	}
	refuse = false
	db.SetReadOnly(false)
	if err := db.ApplyUpdates(context.Background(), portion, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	if db.Len() != len(base)+splitInserts {
		t.Fatalf("%d segments after the portion, want %d", db.Len(), len(base)+splitInserts)
	}
}

// A correction finds its segment and rewrites it in the same descent. On a
// file whose pool holds far fewer pages than the tree has leaves, one
// fitting correction on every leaf reads each leaf from the file once (and
// the root, which stays in the pool, once at most) — not once to look the
// segment up and again, evicted since, to rewrite it. The leaves hold
// stationary objects along one axis, so each leaf's box is apart from the
// others' and the lookup goes straight to the right one.
func TestCorrectionReadsEachLeafOnce(t *testing.T) {
	db := newTestDB(t, Options{Path: filepath.Join(t.TempDir(), "leaves.dynq"), BufferPages: 8})
	base := make([]MotionUpdate, 4000)
	for i := range base {
		x := float64(i)
		base[i] = MotionUpdate{ID: ObjectID(i), Segment: Segment{T0: 0, T1: 10, From: []float64{x, 0}, To: []float64{x, 0}}}
	}
	if err := db.BulkLoadUpdates(base); err != nil {
		t.Fatal(err)
	}
	tree := db.units.Shard(0).Tree
	root, level, _ := tree.Root()
	if level != 1 {
		t.Fatalf("root at level %d, want 1", level)
	}
	var leaves []pager.PageID
	if err := tree.View(root, nil, func(v rtree.NodeView) error {
		for k := 0; k < v.Len(); k++ {
			leaves = append(leaves, v.ChildID(k))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var batch []MotionUpdate
	for _, leaf := range leaves {
		if err := tree.View(leaf, nil, func(v rtree.NodeView) error {
			id, t0 := v.EntryKey(v.Len() / 2)
			batch = append(batch, MotionUpdate{ID: ObjectID(id), Segment: Segment{T0: t0}, Delete: true}, base[id])
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if len(leaves) < 4*db.BufferStats().Capacity {
		t.Fatalf("%d leaves for a pool of %d pages: too few to evict", len(leaves), db.BufferStats().Capacity)
	}
	misses := db.BufferStats().Misses
	if err := db.ApplyUpdates(context.Background(), batch, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	if misses = db.BufferStats().Misses - misses; misses > int64(len(leaves))+1 {
		t.Errorf("%d corrections on as many leaves read %d pages, want at most %d (%.2f per correction)",
			len(leaves), misses, len(leaves)+1, float64(misses)/float64(len(leaves)))
	}
}
