package dynq

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
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
	if rep.TornHeaderRepaired {
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

// TestOpenFileRecoverReusesOrphanPage commits a page the tree never
// references, as a crash between Alloc and the commit of the tree that
// would use it leaves one: recovery counts it in FreePages, on every
// open, and hands it out at the next allocation.
func TestOpenFileRecoverReusesOrphanPage(t *testing.T) {
	path, segs := seedFile(t, 300)

	fs, err := pager.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	orphan, err := fs.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, pager.PageSize)
	for i := range buf {
		buf[i] = 0xAB
	}
	if err := fs.WritePage(orphan, buf); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil { // Close syncs: the orphan is committed
		t.Fatal(err)
	}

	for open := 1; open <= 2; open++ {
		db, rep, err := OpenFileRecoverWith(path, RecoverOptions{})
		if err != nil {
			t.Fatalf("open %d: %v", open, err)
		}
		if rep.FreePages != 1 || rep.Segments != len(segs) {
			t.Fatalf("open %d: want 1 free page and %d segments, got: %s", open, len(segs), rep)
		}
		id, err := db.units.Shard(0).Store().Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if id != orphan {
			t.Fatalf("open %d: allocated page %d, want the orphan %d", open, id, orphan)
		}
		db.Close() // the allocation is never written or referenced: still an orphan
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

// TestOpenFileWithFreeChain opens testdata/free-chain.dynq, written by a
// build that kept the free pages as a chain on disk: 300 segments
// inserted, 260 of them deleted, synced. Its header's word 20 heads the
// chain, and each chained page's first word links to the next. The
// chained pages are the ones the tree does not reach, so they count in
// FreePages and the next allocations reuse them, lowest id first. The
// next commit writes the retired header words 20 and 24 as InvalidPage.
func TestOpenFileWithFreeChain(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "free-chain.dynq"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "chain.dynq")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	// committedWord reads a header word of the slot with the higher
	// sequence number.
	committedWord := func(raw []byte, off int) uint32 {
		slot := 0
		if binary.LittleEndian.Uint64(raw[pager.PageSize+8:]) > binary.LittleEndian.Uint64(raw[8:]) {
			slot = pager.PageSize
		}
		return binary.LittleEndian.Uint32(raw[slot+off:])
	}
	fs, err := pager.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	var chain []pager.PageID
	buf := make([]byte, pager.PageSize)
	for id := pager.PageID(committedWord(raw, 20)); id != pager.InvalidPage; id = pager.PageID(binary.LittleEndian.Uint32(buf)) {
		chain = append(chain, id)
		if err := fs.ReadPage(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	fs.Crash()
	if len(chain) == 0 {
		t.Fatal("the fixture's free chain is empty")
	}
	slices.Sort(chain)

	db, rep, err := OpenFileRecoverWith(path, RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FreePages != len(chain) || rep.Segments != 40 {
		t.Fatalf("want %d free pages and 40 segments, got: %s", len(chain), rep)
	}
	store := db.units.Shard(0).Store()
	for _, want := range append(chain, pager.PageID(store.NumPages())) {
		if id, err := store.Alloc(); err != nil || id != want {
			t.Fatalf("Alloc = %d, %v; want %d (chain %v)", id, err, want, chain)
		}
	}
	if err := errors.Join(db.Validate(), db.Sync(), db.Close()); err != nil {
		t.Fatal(err)
	}
	if raw, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	if w20, w24 := committedWord(raw, 20), committedWord(raw, 24); w20 != uint32(pager.InvalidPage) || w24 != uint32(pager.InvalidPage) {
		t.Fatalf("committed header words 20 and 24 are %#x and %#x, want InvalidPage", w20, w24)
	}
}
