package dynq

import (
	"errors"
	"math/rand"
	"path/filepath"
	"testing"

	"dynq/internal/pager"
)

// seedFile builds a committed file database with n segments and returns
// the path plus the committed sequence (for replica comparison).
func seedFile(t *testing.T, n int) (string, []soakSeg) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "recover.dynq")
	wrand := rand.New(rand.NewSource(21))
	var nextID ObjectID
	segs := genSoakBatch(wrand, n, &nextID)
	if err := createFiles(singleLayout(path), 1, false, 0, segs); err != nil {
		t.Fatalf("seed: %v", err)
	}
	return path, segs
}

func TestOpenFileRecoverCleanFile(t *testing.T) {
	path, segs := seedFile(t, 300)
	db, rep, err := OpenFileRecoverWith(path, RecoverOptions{})
	if err != nil {
		t.Fatalf("recover clean file: %v", err)
	}
	defer db.Close()
	if rep.Segments != len(segs) {
		t.Fatalf("report counts %d segments, want %d", rep.Segments, len(segs))
	}
	if rep.PagesChecked != rep.LeafPages+rep.InternalPages {
		t.Fatalf("page partition inconsistent: %s", rep)
	}
	if rep.TornHeaderRepaired || rep.FreeListRebuilt {
		t.Fatalf("clean file reported repairs: %s", rep)
	}
	st, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Segments != len(segs) {
		t.Fatalf("recovered database holds %d segments, want %d", st.Segments, len(segs))
	}
}

// TestOpenFileRecoverDetectsBitRot flips one bit in a committed tree
// page; recovery must refuse to open with a typed error naming the
// corruption, not serve a silently wrong index.
func TestOpenFileRecoverDetectsBitRot(t *testing.T) {
	path, _ := seedFile(t, 300)
	fs, err := pager.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	// Page 0 always exists in a non-empty tree; flip a data bit.
	if err := fs.FlipBit(0, 12345); err != nil {
		t.Fatal(err)
	}
	fs.Crash()

	_, _, err = OpenFileRecoverWith(path, RecoverOptions{})
	if err == nil {
		t.Fatal("bit rot went undetected")
	}
	if !errors.Is(err, ErrCorrupt) || !errors.Is(err, pager.ErrCorruptPage) {
		t.Fatalf("bit rot error not typed: %v", err)
	}
}

// TestOpenFileRecoverRebuildsFreeList simulates a crash between Alloc
// and commit by appending an orphan page record beyond the tree:
// recovery must fold it back into the free list and commit the repair.
func TestOpenFileRecoverRebuildsFreeList(t *testing.T) {
	path, segs := seedFile(t, 300)

	// Allocate and write a page, then commit — but never reference it
	// from the tree, leaving it neither reachable nor on the free chain.
	fs, err := pager.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	id, err := fs.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, pager.PageSize)
	for i := range buf {
		buf[i] = 0xAB
	}
	if err := fs.WritePage(id, buf); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil { // Close syncs: the orphan is committed
		t.Fatal(err)
	}

	db, rep, err := OpenFileRecoverWith(path, RecoverOptions{})
	if err != nil {
		t.Fatalf("recovery should repair an orphan page, got: %v", err)
	}
	defer db.Close()
	if !rep.FreeListRebuilt || rep.OrphanPages != 1 {
		t.Fatalf("expected a free-list rebuild with 1 orphan, got: %s", rep)
	}
	if rep.Segments != len(segs) {
		t.Fatalf("repair changed the data: %d segments, want %d", rep.Segments, len(segs))
	}

	// The repair was committed: a second open is clean.
	db2, rep2, err := OpenFileRecoverWith(path, RecoverOptions{})
	if err != nil {
		t.Fatalf("second open: %v", err)
	}
	defer db2.Close()
	if rep2.FreeListRebuilt {
		t.Fatalf("free-list repair did not stick: %s", rep2)
	}
	if rep2.FreePages != 1 {
		t.Fatalf("orphan not on the free list after repair: %s", rep2)
	}
}

// TestOpenFileRecoverDetectsMetaMismatch corrupts the committed segment
// count; the tree walk must notice the disagreement.
func TestOpenFileRecoverDetectsMetaMismatch(t *testing.T) {
	path, _ := seedFile(t, 300)
	fs, err := pager.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	m, lsn, err := decodeMeta(fs.Aux())
	if err != nil {
		t.Fatal(err)
	}
	m.Size += 7
	if err := fs.SetAux(encodeMeta(m, lsn)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	_, _, err = OpenFileRecoverWith(path, RecoverOptions{})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("segment-count mismatch not detected as ErrCorrupt: %v", err)
	}
}
