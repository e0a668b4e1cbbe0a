package pager

import (
	"bytes"
	"errors"
	"path/filepath"
	"sync"
	"testing"
)

func mustCreate(t *testing.T, path string) *FileStore {
	t.Helper()
	s, err := CreateFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustAllocWrite(t *testing.T, s Store, fill byte) PageID {
	t.Helper()
	id, err := s.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WritePage(id, fillPage(fill)); err != nil {
		t.Fatal(err)
	}
	return id
}

// A bit flipped anywhere in a page's stored bytes must surface as a
// typed ErrCorruptPage from ReadPage, and bump the process counter.
func TestFileStoreDetectsBitRot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db")
	s := mustCreate(t, path)
	defer s.Close()
	id := mustAllocWrite(t, s, 0xA5)

	before := ChecksumFailures()
	if err := s.FlipBit(id, 12345); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	err := s.ReadPage(id, buf)
	if !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("ReadPage after bit flip = %v, want ErrCorruptPage", err)
	}
	var ce *CorruptPageError
	if !errors.As(err, &ce) || ce.ID != id {
		t.Fatalf("error %v does not carry page id %d", err, id)
	}
	if ChecksumFailures() <= before {
		t.Error("ChecksumFailures did not increase")
	}
}

// A torn write (prefix-only persistence) must also fail verification —
// including a tear inside the trailer itself.
func TestFileStoreDetectsTornWrite(t *testing.T) {
	for _, n := range []int{0, 1, 100, PageSize - 1, PageSize, PageSize + 8, physPageSize - 1} {
		path := filepath.Join(t.TempDir(), "db")
		s := mustCreate(t, path)
		id := mustAllocWrite(t, s, 0x11)
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := s.WritePageTorn(id, fillPage(0x22), n); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, PageSize)
		err := s.ReadPage(id, buf)
		// The invariant is "no silent partial page": a torn write either
		// reads back as typed corruption, or — when the tear landed
		// entirely outside the meaningful bytes — as exactly the old or
		// exactly the new page. Never a mix.
		switch {
		case errors.Is(err, ErrCorruptPage):
		case err == nil && bytes.Equal(buf, fillPage(0x11)):
		case err == nil && bytes.Equal(buf, fillPage(0x22)):
		default:
			t.Fatalf("n=%d: ReadPage = %v with mixed content", n, err)
		}
		s.Close()
	}
}

// Pages written after the last commit must carry epoch committedSeq+1;
// committed pages carry an epoch <= the committed sequence.
func TestFileStoreEpochs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db")
	s := mustCreate(t, path)
	defer s.Close()
	a := mustAllocWrite(t, s, 0x01)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	seq := s.CommittedSeq()
	b := mustAllocWrite(t, s, 0x02)

	buf := make([]byte, PageSize)
	ea, err := s.ReadPageEpoch(a, buf)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := s.ReadPageEpoch(b, buf)
	if err != nil {
		t.Fatal(err)
	}
	if ea > seq {
		t.Errorf("committed page epoch %d > committed seq %d", ea, seq)
	}
	if eb != seq+1 {
		t.Errorf("post-commit page epoch = %d, want %d", eb, seq+1)
	}
}

// Crash discards everything staged since the last Sync: allocations and
// aux revert on reopen.
func TestFileStoreCrashLosesUncommitted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db")
	s := mustCreate(t, path)
	mustAllocWrite(t, s, 0x0A)
	if err := s.SetAux([]byte("committed")); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	// Staged but never committed.
	mustAllocWrite(t, s, 0x0B)
	if err := s.SetAux([]byte("lost")); err != nil {
		t.Fatal(err)
	}
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.NumPages(); got != 1 {
		t.Errorf("NumPages after crash = %d, want 1", got)
	}
	if got := string(s2.Aux()); got != "committed" {
		t.Errorf("Aux after crash = %q, want %q", got, "committed")
	}
}

// The free list survives commit, walks correctly, and can be rebuilt.
func TestFileStoreFreeList(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db")
	s := mustCreate(t, path)
	var ids []PageID
	for i := 0; i < 5; i++ {
		ids = append(ids, mustAllocWrite(t, s, byte(i)))
	}
	for _, id := range []PageID{ids[1], ids[3]} {
		if err := s.Free(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	list, err := s2.FreeList()
	if err != nil {
		t.Fatal(err)
	}
	want := []PageID{ids[3], ids[1]} // LIFO
	if len(list) != len(want) || list[0] != want[0] || list[1] != want[1] {
		t.Fatalf("FreeList = %v, want %v", list, want)
	}

	if err := s2.ResetFreeList([]PageID{ids[1], ids[3], ids[0]}); err != nil {
		t.Fatal(err)
	}
	list, err = s2.FreeList()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 3 || list[0] != ids[1] || list[1] != ids[3] || list[2] != ids[0] {
		t.Fatalf("FreeList after rebuild = %v", list)
	}
	// Alloc pops the rebuilt head and zeroes it.
	id, err := s2.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if id != ids[1] {
		t.Errorf("Alloc after rebuild = %d, want %d", id, ids[1])
	}
	buf := make([]byte, PageSize)
	if err := s2.ReadPage(id, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, PageSize)) {
		t.Error("reused page not zeroed")
	}
}

// Opening a v1-format file yields a descriptive error, not a crash or a
// misread.
func TestFileStoreRejectsV1Format(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old")
	s := mustCreate(t, path)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := openRaw(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte(fileMagicV1), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte(fileMagicV1), PageSize); err != nil {
		t.Fatal(err)
	}
	f.Close()
	_, err = OpenFileStore(path)
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("old unchecksummed format")) {
		t.Fatalf("open v1 file = %v, want old-format error", err)
	}
}

// Both header slots corrupt (but right magic) → typed ErrCorruptHeader.
func TestFileStoreCorruptHeaderTyped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db")
	s := mustCreate(t, path)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := openRaw(path)
	if err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < headerSlots; slot++ {
		if _, err := f.WriteAt([]byte{0xFF, 0xFF}, int64(slot)*PageSize+hdrSeqOff); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	_, err = OpenFileStore(path)
	if !errors.Is(err, ErrCorruptHeader) {
		t.Fatalf("open with both slots corrupt = %v, want ErrCorruptHeader", err)
	}
}

// Reading, writing, allocating and freeing pages recycle their physical-
// record buffer instead of allocating one per call.
func TestFileStoreDoesNotAllocatePerCall(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a share of its items under the race detector")
	}
	s := mustCreate(t, filepath.Join(t.TempDir(), "db"))
	defer s.Close()
	id := mustAllocWrite(t, s, 0x5A)
	buf, page := make([]byte, PageSize), fillPage(0x5A)
	for what, fn := range map[string]func() error{
		"ReadPage":     func() error { return s.ReadPage(id, buf) },
		"WritePage":    func() error { return s.WritePage(id, page) },
		"Alloc + Free": func() error { p, err := s.Alloc(); return errors.Join(err, s.Free(p)) },
	} {
		if allocs := testing.AllocsPerRun(100, func() {
			if err := fn(); err != nil {
				t.Fatal(err)
			}
		}); allocs > 0.5 {
			t.Errorf("%s: %.1f allocs per call, want none", what, allocs)
		}
	}
	if !bytes.Equal(buf, page) {
		t.Error("page read back differs")
	}
}

// A buffer pool reads missed pages and writes evicted ones back outside
// any common lock, so the store's scratch must be per call: concurrent
// reads and writes of different pages never see each other's bytes.
func TestFileStoreConcurrentPageIO(t *testing.T) {
	s := mustCreate(t, filepath.Join(t.TempDir(), "db"))
	defer s.Close()
	const pages = 16
	ids := make([]PageID, pages)
	for i := range ids {
		ids[i] = mustAllocWrite(t, s, byte(i))
	}
	var wg sync.WaitGroup
	for g := 0; g < pages; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, PageSize)
			for round := 0; round < 200; round++ {
				if g%2 == 0 { // writers keep rewriting their own page
					if err := s.WritePage(ids[g], fillPage(byte(g))); err != nil {
						t.Error(err)
						return
					}
				}
				if err := s.ReadPage(ids[g], buf); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(buf, fillPage(byte(g))) {
					t.Errorf("page %d read another page's bytes", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
