package pager_test

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"

	"dynq/internal/fault"
	"dynq/internal/pager"
)

func fillPage(b byte) []byte {
	buf := make([]byte, pager.PageSize)
	for i := range buf {
		buf[i] = b
	}
	return buf
}

func mustCreate(t *testing.T, path string) *pager.FileStore {
	t.Helper()
	s, err := pager.CreateFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustAllocWrite(t *testing.T, s pager.Store, b byte) pager.PageID {
	t.Helper()
	id, err := s.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WritePage(id, fillPage(b)); err != nil {
		t.Fatal(err)
	}
	return id
}

// The new per-op countdowns: Sync, Alloc, and Free each trip on the n-th
// call and stay tripped until Disarm.
func TestFaultStoreOpCountdowns(t *testing.T) {
	fs := fault.NewStore(pager.NewMemStore())

	fs.ArmSyncs(2)
	if err := fs.Sync(); err != nil {
		t.Fatalf("sync 1: %v", err)
	}
	if err := fs.Sync(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("sync 2 = %v, want fault.ErrInjected", err)
	}
	if err := fs.Sync(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("sync 3 = %v, want fault.ErrInjected (stays tripped)", err)
	}
	fs.Disarm()
	if err := fs.Sync(); err != nil {
		t.Fatalf("sync after disarm: %v", err)
	}

	fs.ArmAllocs(1)
	if _, err := fs.Alloc(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("alloc = %v, want fault.ErrInjected", err)
	}
	fs.Disarm()
	id, err := fs.Alloc()
	if err != nil {
		t.Fatal(err)
	}

	fs.ArmFrees(1)
	if err := fs.Free(id); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("free = %v, want fault.ErrInjected", err)
	}
	fs.Disarm()
	if err := fs.Free(id); err != nil {
		t.Fatal(err)
	}

	st := fs.Stats()
	if st.InjectedSyncs != 2 || st.InjectedAllocs != 1 || st.InjectedFrees != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// ArmTornWrites persists a prefix on the n-th write (file-backed: the
// page then reads back corrupt) and fails outright afterwards.
func TestFaultStoreTornWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db")
	inner := mustCreate(t, path)
	defer inner.Close()
	fs := fault.NewStore(inner)
	id := mustAllocWrite(t, fs, 0x77)
	if err := inner.Sync(); err != nil {
		t.Fatal(err)
	}

	fs.ArmTornWrites(1)
	if err := fs.WritePage(id, fillPage(0x99)); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("torn write = %v, want fault.ErrInjected", err)
	}
	if err := fs.WritePage(id, fillPage(0x99)); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("write after torn = %v, want fault.ErrInjected", err)
	}
	if got := fs.Stats().TornWrites; got != 1 {
		t.Errorf("TornWrites = %d, want 1", got)
	}
	buf := make([]byte, pager.PageSize)
	err := inner.ReadPage(id, buf)
	// Depending on the torn prefix length the page is either corrupt or
	// (zero-length tear) still the old content — never the new content.
	if err == nil {
		for i := range buf {
			if buf[i] == 0x99 {
				t.Fatal("torn write fully persisted the new page")
			}
		}
	} else if !errors.Is(err, pager.ErrCorruptPage) {
		t.Fatalf("read after torn write = %v", err)
	}
}

// A scripted plan with the same seed injects the same faults at the same
// operations; a plan with rate 1 always fires; rate 0 never fires.
func TestFaultStorePlanDeterminism(t *testing.T) {
	run := func(seed uint64) []bool {
		fs := fault.NewStore(pager.NewMemStore())
		id, err := fs.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		fs.Script(&fault.Plan{Seed: seed, WriteErr: 0.5})
		var outcomes []bool
		for i := 0; i < 64; i++ {
			outcomes = append(outcomes, fs.WritePage(id, fillPage(1)) != nil)
		}
		return outcomes
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at op %d", i)
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical fault schedules (suspicious)")
	}

	always := fault.NewStore(pager.NewMemStore())
	id, _ := always.Alloc()
	always.Script(&fault.Plan{ReadErr: 1})
	if err := always.ReadPage(id, make([]byte, pager.PageSize)); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("rate-1 read = %v, want fault.ErrInjected", err)
	}
	always.Script(&fault.Plan{}) // all rates zero
	if err := always.ReadPage(id, make([]byte, pager.PageSize)); err != nil {
		t.Fatalf("rate-0 read = %v", err)
	}
}

// A scripted bit flip corrupts the stored page below the checksum: the
// write reports success but the page reads back as pager.ErrCorruptPage.
func TestFaultStorePlanBitFlip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db")
	inner := mustCreate(t, path)
	defer inner.Close()
	fs := fault.NewStore(inner)
	id := mustAllocWrite(t, fs, 0x00)

	fs.Script(&fault.Plan{Seed: 7, BitFlip: 1})
	if err := fs.WritePage(id, fillPage(0x55)); err != nil {
		t.Fatalf("write with bit flip = %v (flips corrupt silently)", err)
	}
	fs.Disarm()
	err := fs.ReadPage(id, make([]byte, pager.PageSize))
	if !errors.Is(err, pager.ErrCorruptPage) {
		t.Fatalf("read after bit flip = %v, want pager.ErrCorruptPage", err)
	}
	if got := fs.Stats().BitFlips; got != 1 {
		t.Errorf("BitFlips = %d, want 1", got)
	}
}

// TestBufferPoolFlushAttemptsEveryFrame pins the Flush failure contract:
// a failed write-back must not stop the flush, must leave exactly the
// failed frames dirty, and must surface every failure in the joined
// error.
func TestBufferPoolFlushAttemptsEveryFrame(t *testing.T) {
	fs := fault.NewStore(pager.NewMemStore())
	bp := pager.NewBufferPool(fs, 8)
	for i := 0; i < 3; i++ {
		if _, err := bp.Alloc(); err != nil {
			t.Fatal(err)
		}
		if err := bp.Put(pager.PageID(i), fillPage(byte('a'+i))); err != nil {
			t.Fatal(err)
		}
	}

	// First write succeeds, the remaining two fail.
	fs.ArmWrites(2)
	err := bp.Flush()
	if err == nil {
		t.Fatal("Flush with injected write faults returned nil")
	}
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Flush error %v does not wrap fault.ErrInjected", err)
	}
	if got := bp.WriteBacks(); got != 3 {
		t.Fatalf("Flush attempted %d write-backs, want 3 (every dirty frame)", got)
	}

	// Only the two failed frames stayed dirty: a second flush writes
	// exactly those, and the store ends up fully consistent.
	fs.Disarm()
	if err := bp.Flush(); err != nil {
		t.Fatalf("Flush after disarm: %v", err)
	}
	if got := bp.WriteBacks(); got != 5 {
		t.Fatalf("second Flush wrote %d frames cumulatively, want 5 (3 attempts + 2 retries)", got)
	}
	for i := 0; i < 3; i++ {
		buf := make([]byte, pager.PageSize)
		if err := fs.Inner.ReadPage(pager.PageID(i), buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, fillPage(byte('a'+i))) {
			t.Fatalf("page %d not persisted correctly after retried flush", i)
		}
	}
}

// TestBufferPoolInvalidateKeepsUnpersistedFrames verifies that a failed
// flush aborts Invalidate before any frame is dropped, so dirty data is
// never silently discarded.
func TestBufferPoolInvalidateKeepsUnpersistedFrames(t *testing.T) {
	fs := fault.NewStore(pager.NewMemStore())
	bp := pager.NewBufferPool(fs, 8)
	if _, err := bp.Alloc(); err != nil {
		t.Fatal(err)
	}
	if err := bp.Put(0, fillPage('x')); err != nil {
		t.Fatal(err)
	}

	fs.ArmWrites(1)
	if err := bp.Invalidate(); err == nil {
		t.Fatal("Invalidate with failing write-back returned nil")
	}
	if bp.Len() != 1 {
		t.Fatalf("failed Invalidate dropped frames: len=%d, want 1", bp.Len())
	}

	fs.Disarm()
	if err := bp.Invalidate(); err != nil {
		t.Fatalf("Invalidate after disarm: %v", err)
	}
	if bp.Len() != 0 {
		t.Fatalf("Invalidate left %d frames", bp.Len())
	}
	buf := make([]byte, pager.PageSize)
	if err := fs.Inner.ReadPage(0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, fillPage('x')) {
		t.Fatal("dirty frame lost across failed-then-retried Invalidate")
	}
}
