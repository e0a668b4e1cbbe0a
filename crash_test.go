package dynq

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"dynq/internal/fault"
	"dynq/internal/pager"
)

// crash abandons the database the way a power cut would, for the soaks
// and crash tests: no final sync, buffered pages lost, each log ending
// wherever its last append stopped.
func (e *engine) crash() error {
	e.units.Shutdown()
	var errs []error
	for _, w := range e.logs {
		errs = append(errs, w.Crash())
	}
	for i := 0; i < e.units.Shards(); i++ {
		st := e.units.Shard(i).Store()
		if f, ok := st.(*fault.Store); ok {
			st = f.Inner // a soak's fault interposer: crash the file beneath
		}
		if fs, ok := st.(*pager.FileStore); ok {
			errs = append(errs, fs.Crash())
		} else {
			errs = append(errs, st.Close())
		}
	}
	return errors.Join(errs...)
}

// TestCrashAtEveryFlushBoundary is the exhaustive crash simulation: a
// buffered database flushes W dirty pages at Sync; the test kills the
// write stream at every boundary k = 1..W (torn write at k, hard failure
// after) plus k = W+1 (no crash), reopens with full recovery, and checks
// that the database either reports typed corruption or answers all four
// query types exactly like a replica that never crashed — the pre-batch
// replica when the Sync failed, the post-batch replica when it
// succeeded.
func TestCrashAtEveryFlushBoundary(t *testing.T) {
	const bufferPages = 256
	path := filepath.Join(t.TempDir(), "crash.dynq")

	// Deterministic workload: committed base batch A, then crash-prone
	// batch B.
	wrand := rand.New(rand.NewSource(99))
	var nextID ObjectID
	batchA := genSoakBatch(wrand, 400, &nextID)
	batchB := genSoakBatch(wrand, 400, &nextID)

	// Never-crashed replicas of the two states the file may legally hold.
	pre := mustReplica(t, batchA)
	defer pre.Close()
	post := mustReplica(t, append(append([]soakSeg(nil), batchA...), batchB...))
	defer post.Close()

	// Dry run: count the page writes one Sync of batch B performs.
	if err := createFiles(singleLayout(path), 1, false, bufferPages, batchA); err != nil {
		t.Fatalf("seed file: %v", err)
	}
	db, faults, err := openFaulted(path, recoverSpec{bufferPages: bufferPages}, nil)
	if err != nil {
		t.Fatalf("dry-run open: %v", err)
	}
	insertAll(t, db, batchB)
	if err := db.Sync(); err != nil {
		t.Fatalf("dry-run sync: %v", err)
	}
	writes := faults.Stats().Writes
	if err := db.crash(); err != nil {
		t.Fatalf("dry-run crash: %v", err)
	}
	if writes < 2 {
		t.Fatalf("dry run performed only %d page writes; batch too small to exercise flush boundaries", writes)
	}
	t.Logf("flush writes %d pages; simulating a crash at every boundary", writes)

	var corrupt, cleanPre, cleanPost int
	for k := int64(1); k <= writes+1; k++ {
		if err := createFiles(singleLayout(path), 1, false, bufferPages, batchA); err != nil {
			t.Fatalf("k=%d: rebuild: %v", k, err)
		}
		db, faults, err := openFaulted(path, recoverSpec{bufferPages: bufferPages}, nil)
		if err != nil {
			t.Fatalf("k=%d: open: %v", k, err)
		}
		insertAll(t, db, batchB)
		faults.ArmTornWrites(k)
		syncErr := db.Sync()
		if err := db.crash(); err != nil {
			t.Fatalf("k=%d: crash: %v", k, err)
		}
		if k <= writes && syncErr == nil {
			t.Fatalf("k=%d: sync succeeded despite a torn write", k)
		}
		if k == writes+1 && syncErr != nil {
			t.Fatalf("k=%d: sync past the last write boundary should succeed, got %v", k, syncErr)
		}

		rdb, _, err := OpenFileRecoverWith(path, RecoverOptions{})
		if err != nil {
			if !isTypedCorruption(err) {
				t.Fatalf("k=%d: reopen failed with untyped error: %v", k, err)
			}
			corrupt++
			continue
		}
		want := pre
		if syncErr == nil {
			want = post
			cleanPost++
		} else {
			cleanPre++
		}
		qrand := rand.New(rand.NewSource(1000 + k))
		wrong, compared, err := compareAnswers(rdb, want, qrand)
		rdb.Close()
		if err != nil {
			t.Fatalf("k=%d: query comparison: %v", k, err)
		}
		if wrong != 0 {
			t.Fatalf("k=%d: recovered database gave %d/%d wrong answers (sync err: %v)",
				k, wrong, compared, syncErr)
		}
	}
	t.Logf("boundaries: %d detected corruptions, %d clean pre-batch recoveries, %d clean post-batch recoveries",
		corrupt, cleanPre, cleanPost)
	if cleanPost == 0 {
		t.Fatalf("the no-crash boundary (k=%d) must recover the post-batch state", writes+1)
	}
	if corrupt+cleanPre == 0 {
		t.Fatal("no boundary exercised a failed sync — the harness is not tearing writes")
	}
}

// TestSyncFaultLeavesCommittedState is the DB.Sync error-path regression
// test: an injected Sync failure must surface the error, and the file
// must still open to the previously committed state.
func TestSyncFaultLeavesCommittedState(t *testing.T) {
	const bufferPages = 256
	path := filepath.Join(t.TempDir(), "syncfault.dynq")
	wrand := rand.New(rand.NewSource(5))
	var nextID ObjectID
	batchA := genSoakBatch(wrand, 48, &nextID)
	batchB := genSoakBatch(wrand, 48, &nextID)
	pre := mustReplica(t, batchA)
	defer pre.Close()

	if err := createFiles(singleLayout(path), 1, false, bufferPages, batchA); err != nil {
		t.Fatalf("seed file: %v", err)
	}
	db, faults, err := openFaulted(path, recoverSpec{bufferPages: bufferPages}, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	insertAll(t, db, batchB)
	faults.ArmSyncs(1) // the page flush succeeds; the commit fsync fails
	if err := db.Sync(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Sync with injected sync fault: got %v, want ErrInjected", err)
	}
	if got := faults.Stats().InjectedSyncs; got != 1 {
		t.Fatalf("injected syncs = %d, want 1", got)
	}
	if err := db.crash(); err != nil {
		t.Fatalf("crash: %v", err)
	}

	rdb, rep, err := OpenFileRecoverWith(path, RecoverOptions{})
	if err != nil {
		// The flushed-but-uncommitted pages may have overwritten committed
		// ones in place; recovery must then say so, typed.
		if !isTypedCorruption(err) {
			t.Fatalf("reopen: untyped error %v", err)
		}
		t.Logf("recovery reported typed corruption (in-place overwrite before failed commit): %v", err)
		return
	}
	defer rdb.Close()
	qrand := rand.New(rand.NewSource(77))
	wrong, compared, err := compareAnswers(rdb, pre, qrand)
	if err != nil {
		t.Fatalf("query comparison: %v", err)
	}
	if wrong != 0 {
		t.Fatalf("recovered database gave %d/%d answers differing from committed state (%s)", wrong, compared, rep)
	}
}

func mustReplica(t *testing.T, segs []soakSeg) *DB {
	t.Helper()
	db, err := Open(Options{})
	if err != nil {
		t.Fatalf("replica open: %v", err)
	}
	for _, s := range segs {
		if err := db.Insert(s.id, s.seg); err != nil {
			t.Fatalf("replica insert: %v", err)
		}
	}
	return db
}

func insertAll(t *testing.T, db *DB, segs []soakSeg) {
	t.Helper()
	for _, s := range segs {
		if err := db.Insert(s.id, s.seg); err != nil {
			t.Fatalf("insert %d: %v", s.id, err)
		}
	}
}

// TestCrashAfterFreesReopens crashes a database after deletes that free
// pages, with no Sync since the inserts. Freeing and reusing a page write
// nothing over the committed tree, so the reopen finds every acknowledged
// update with a log, and the synced state without one: one unit with a
// log and the default buffer, one without a log behind a 1 024-page
// buffer, and four units with logs.
func TestCrashAfterFreesReopens(t *testing.T) {
	for _, tc := range []struct {
		name           string
		shards, buffer int
		wal            bool
	}{
		{"one unit with a log", 0, 0, true},
		{"one unit without a log", 0, 1024, false},
		{"four units with logs", 4, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "frees.dynq")
			opts := Options{Path: path, DualTimeAxes: true, BufferPages: tc.buffer}
			var (
				db  *DB
				err error
			)
			if tc.shards > 0 {
				db, err = OpenSharded(ShardOptions{Options: opts, Shards: tc.shards, WAL: tc.wal})
			} else {
				if tc.wal {
					opts.WALPath = path + ".wal"
				}
				db, err = Open(opts)
			}
			if err != nil {
				t.Fatal(err)
			}
			apply := func(ups []MotionUpdate) {
				t.Helper()
				if err := db.ApplyUpdates(context.Background(), ups, WriteOptions{}); err != nil {
					t.Fatal(err)
				}
			}
			wrand := rand.New(rand.NewSource(1))
			var (
				nextID ObjectID
				live   []soakSeg
			)
			for range 50 {
				batch := genSoakBatch(wrand, 100, &nextID)
				apply(toUpdates(batch))
				live = append(live, batch...)
			}
			if err := db.Sync(); err != nil {
				t.Fatal(err)
			}
			synced := slices.Clone(live)
			wrand.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
			for range 40 {
				ups := toUpdates(live[:100])
				for i := range ups {
					ups[i].Delete = true
				}
				apply(ups)
				live = live[100:]
			}
			if err := db.crash(); err != nil {
				t.Fatal(err)
			}

			re, _, err := OpenFileRecoverWith(path, RecoverOptions{Shards: tc.shards})
			if err != nil {
				t.Fatalf("reopen after frees: %v", err)
			}
			defer re.Close()
			want := live
			if !tc.wal {
				want = synced
			}
			if re.Len() != len(want) {
				t.Fatalf("reopened with %d segments, want %d", re.Len(), len(want))
			}
			if err := re.Validate(); err != nil {
				t.Fatal(err)
			}
			replica := mustReplica(t, want)
			defer replica.Close()
			wrong, compared, err := compareAnswers(re, replica, rand.New(rand.NewSource(2)))
			if err != nil {
				t.Fatal(err)
			}
			if wrong != 0 {
				t.Fatalf("reopened database gave %d/%d wrong answers", wrong, compared)
			}
		})
	}
}
