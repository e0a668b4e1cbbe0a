package pager

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"
)

func fillPage(b byte) []byte {
	p := make([]byte, PageSize)
	for i := range p {
		p[i] = b
	}
	return p
}

func testStoreRoundTrip(t *testing.T, s Store) {
	t.Helper()
	id1, err := s.Alloc()
	if err != nil {
		t.Fatalf("alloc: %v", err)
	}
	id2, err := s.Alloc()
	if err != nil {
		t.Fatalf("alloc: %v", err)
	}
	if id1 == id2 {
		t.Fatal("alloc returned duplicate ids")
	}
	if err := s.WritePage(id1, fillPage(0xAA)); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := s.WritePage(id2, fillPage(0xBB)); err != nil {
		t.Fatalf("write: %v", err)
	}
	buf := make([]byte, PageSize)
	if err := s.ReadPage(id1, buf); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(buf, fillPage(0xAA)) {
		t.Error("page 1 corrupted")
	}
	if err := s.ReadPage(id2, buf); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(buf, fillPage(0xBB)) {
		t.Error("page 2 corrupted")
	}
	if s.NumPages() != 2 {
		t.Errorf("NumPages = %d, want 2", s.NumPages())
	}
	// Freed pages are reused; a reused page holds what is written to it.
	if err := s.Free(id1); err != nil {
		t.Fatalf("free: %v", err)
	}
	id3, err := s.Alloc()
	if err != nil {
		t.Fatalf("realloc: %v", err)
	}
	if id3 != id1 {
		t.Errorf("expected freed page %d to be reused, got %d", id1, id3)
	}
	if err := s.WritePage(id3, fillPage(0xCC)); err != nil {
		t.Fatalf("write reused: %v", err)
	}
	if err := s.ReadPage(id3, buf); err != nil {
		t.Fatalf("read reused: %v", err)
	}
	if !bytes.Equal(buf, fillPage(0xCC)) {
		t.Error("reused page corrupted")
	}
	// Short buffers are rejected.
	if err := s.ReadPage(id3, make([]byte, 10)); !errors.Is(err, ErrBadPageData) {
		t.Errorf("short read buffer: %v", err)
	}
	if err := s.WritePage(id3, make([]byte, 10)); !errors.Is(err, ErrBadPageData) {
		t.Errorf("short write buffer: %v", err)
	}
	// Out-of-range access is rejected.
	if err := s.ReadPage(9999, buf); !errors.Is(err, ErrPageOutOfRange) {
		t.Errorf("out-of-range read: %v", err)
	}
	if err := s.Sync(); err != nil {
		t.Errorf("sync: %v", err)
	}
}

func TestMemStore(t *testing.T) {
	s := NewMemStore()
	testStoreRoundTrip(t, s)
	// Access to a freed page is an error in the mem store.
	id, _ := s.Alloc()
	s.Free(id)
	if err := s.ReadPage(id, make([]byte, PageSize)); !errors.Is(err, ErrPageFreed) {
		t.Errorf("freed read: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := s.Alloc(); !errors.Is(err, ErrClosed) {
		t.Errorf("alloc after close: %v", err)
	}
}

func TestFileStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.dynq")
	s, err := CreateFileStore(path)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	testStoreRoundTrip(t, s)
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Reopen: contents survive.
	s2, err := OpenFileStore(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s2.Close()
	buf := make([]byte, PageSize)
	if err := s2.ReadPage(1, buf); err != nil {
		t.Fatalf("read after reopen: %v", err)
	}
	if !bytes.Equal(buf, fillPage(0xBB)) {
		t.Error("page 2 lost across reopen")
	}
}

func TestOpenFileStoreRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk")
	if err := writeJunk(path); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileStore(path); err == nil {
		t.Error("opening a non-page file should fail")
	}
	if _, err := OpenFileStore(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("opening a missing file should fail")
	}
}

func writeJunk(path string) error {
	s, err := CreateFileStore(path)
	if err != nil {
		return err
	}
	if err := s.Close(); err != nil {
		return err
	}
	// Corrupt the magic.
	f, err := openRaw(path)
	if err != nil {
		return err
	}
	defer f.Close()
	// Both header slots: a single bad slot is a recoverable torn commit.
	if _, err := f.WriteAt([]byte("NOTMAGIC"), 0); err != nil {
		return err
	}
	_, err = f.WriteAt([]byte("NOTMAGIC"), PageSize)
	return err
}

// A torn header commit — one corrupt slot — must not prevent opening:
// the other slot still holds the previous committed state.
func TestOpenFileStoreSurvivesTornHeaderSlot(t *testing.T) {
	for slot := 0; slot < headerSlots; slot++ {
		path := filepath.Join(t.TempDir(), "torn")
		s, err := CreateFileStore(path)
		if err != nil {
			t.Fatal(err)
		}
		id, err := s.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.WritePage(id, fillPage(0xCD)); err != nil {
			t.Fatal(err)
		}
		// Sync then Close: two commits, so BOTH slots describe the
		// post-alloc state and either alone can open it.
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		f, err := openRaw(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte{0xFF, 0xFF, 0xFF, 0xFF}, int64(slot)*PageSize+100); err != nil {
			t.Fatal(err)
		}
		f.Close()
		s2, err := OpenFileStore(path)
		if err != nil {
			t.Fatalf("open with slot %d corrupted: %v", slot, err)
		}
		if s2.BothHeaderSlotsValid() {
			t.Errorf("slot %d: BothHeaderSlotsValid = true, want false", slot)
		}
		buf := make([]byte, PageSize)
		if err := s2.ReadPage(id, buf); err != nil {
			t.Fatalf("slot %d: read page: %v", slot, err)
		}
		if !bytes.Equal(buf, fillPage(0xCD)) {
			t.Errorf("slot %d: page content lost", slot)
		}
		s2.Close()
	}
}

// Property: any interleaving of alloc/write/free against the MemStore and
// FileStore behaves identically to a map-based model. A page's contents
// are undefined until it is written whole, so each alloc writes its page.
func TestStoreModelProperty(t *testing.T) {
	dir := t.TempDir()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		fs, err := CreateFileStore(filepath.Join(dir, "p"))
		if err != nil {
			return false
		}
		defer fs.Close()
		stores := []Store{NewMemStore(), fs}
		model := map[PageID][]byte{}
		var live []PageID
		for step := 0; step < 60; step++ {
			switch op := r.Intn(4); {
			case op == 0 || len(live) == 0: // alloc
				var ids []PageID
				for _, s := range stores {
					id, err := s.Alloc()
					if err != nil {
						return false
					}
					ids = append(ids, id)
				}
				if ids[0] != ids[1] {
					return false // both stores must allocate identically
				}
				p := fillPage(byte(r.Intn(256)))
				for _, s := range stores {
					if err := s.WritePage(ids[0], p); err != nil {
						return false
					}
				}
				model[ids[0]] = p
				live = append(live, ids[0])
			case op == 1: // write
				id := live[r.Intn(len(live))]
				p := fillPage(byte(r.Intn(256)))
				for _, s := range stores {
					if err := s.WritePage(id, p); err != nil {
						return false
					}
				}
				model[id] = p
			case op == 2: // read + compare
				id := live[r.Intn(len(live))]
				for _, s := range stores {
					buf := make([]byte, PageSize)
					if err := s.ReadPage(id, buf); err != nil {
						return false
					}
					if !bytes.Equal(buf, model[id]) {
						return false
					}
				}
			case op == 3: // free
				k := r.Intn(len(live))
				id := live[k]
				live = append(live[:k], live[k+1:]...)
				delete(model, id)
				for _, s := range stores {
					if err := s.Free(id); err != nil {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
