package dynq

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"dynq/internal/pager"
	"dynq/internal/rtree"
)

// The tree check (rtree.Walk) as recovery and the background scrub run
// it on committed files.

// Internal pages as internal/rtree/node.go lays them out, for the default
// configuration (2 spatial dims, one time axis): a 16-byte header, then
// entries of x, y and t extents as float32 pairs and the child page.
const (
	pageHeaderSize = 16
	childStride    = (2*2+2)*4 + 4
)

// buildCheckFile writes a committed, bulk-loaded database of n segments
// at path: at n = 6 000 three levels (root, 2 internal pages, 94 leaves).
func buildCheckFile(t testing.TB, path string, n int) {
	t.Helper()
	db, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	var next ObjectID = 1
	if err := db.BulkLoadUpdates(toUpdates(genSoakBatch(rand.New(rand.NewSource(3)), n, &next))); err != nil {
		t.Fatal(err)
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// checkShape is where a case breaks the committed tree: its root, an
// internal page below it and a leaf below that.
type checkShape struct {
	meta        rtree.Meta
	inner, leaf pager.PageID
}

func shapeOf(t *testing.T, fs *pager.FileStore) checkShape {
	t.Helper()
	m, _, err := decodeMeta(fs.Aux())
	if err != nil {
		t.Fatal(err)
	}
	if m.Height != 3 {
		t.Fatalf("test file has height %d, want 3", m.Height)
	}
	root := decodePage(t, fs, m.Config, m.Root)
	inner := decodePage(t, fs, m.Config, root.Children[0].ID)
	return checkShape{meta: m, inner: inner.ID, leaf: inner.Children[0].ID}
}

func decodePage(t *testing.T, fs *pager.FileStore, cfg rtree.Config, id pager.PageID) *rtree.Node {
	t.Helper()
	buf := make([]byte, pager.PageSize)
	if err := fs.ReadPage(id, buf); err != nil {
		t.Fatal(err)
	}
	n, err := rtree.DecodePage(cfg, id, buf)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// editPage rewrites page id through edit with a valid checksum and
// commits it, so only the structural checks can catch what edit broke.
func editPage(t *testing.T, fs *pager.FileStore, id pager.PageID, edit func(p []byte)) {
	t.Helper()
	buf := make([]byte, pager.PageSize)
	if err := fs.ReadPage(id, buf); err != nil {
		t.Fatal(err)
	}
	edit(buf)
	if err := fs.WritePage(id, buf); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
}

func childEntry(p []byte, k int) []byte {
	off := pageHeaderSize + k*childStride
	return p[off : off+childStride]
}

// corruptCases break each invariant of the tree check once. scrub says
// whether one scrub tick counts the case: the segment total is checked
// by recovery only, since a scrub pass skips what was rewritten.
var corruptCases = []struct {
	name  string
	scrub bool
	bust  func(t *testing.T, fs *pager.FileStore, s checkShape)
}{
	{"checksum", true, func(t *testing.T, fs *pager.FileStore, s checkShape) {
		if err := fs.FlipBit(s.leaf, 40_003); err != nil {
			t.Fatal(err)
		}
	}},
	{"epoch newer than header", true, func(t *testing.T, fs *pager.FileStore, s checkShape) {
		// Two commits, then a write with the next epoch and no commit:
		// the page is two epochs past the header the scrub's store holds
		// and one past the header on disk.
		for i := 0; i < 2; i++ {
			if err := fs.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		buf := make([]byte, pager.PageSize)
		if err := fs.ReadPage(s.leaf, buf); err != nil {
			t.Fatal(err)
		}
		if err := fs.WritePage(s.leaf, buf); err != nil {
			t.Fatal(err)
		}
	}},
	{"pointer past the end", true, func(t *testing.T, fs *pager.FileStore, s checkShape) {
		editPage(t, fs, s.meta.Root, func(p []byte) {
			e := childEntry(p, 0)
			binary.LittleEndian.PutUint32(e[len(e)-4:], 1<<20)
		})
	}},
	{"page reached twice", true, func(t *testing.T, fs *pager.FileStore, s checkShape) {
		editPage(t, fs, s.meta.Root, func(p []byte) { copy(childEntry(p, 1), childEntry(p, 0)) })
	}},
	{"level mismatch", true, func(t *testing.T, fs *pager.FileStore, s checkShape) {
		editPage(t, fs, s.inner, func(p []byte) { p[0] = 2 })
	}},
	{"empty internal node", true, func(t *testing.T, fs *pager.FileStore, s checkShape) {
		editPage(t, fs, s.inner, func(p []byte) { binary.LittleEndian.PutUint16(p[2:], 0) })
	}},
	{"child box escapes its parent entry", true, func(t *testing.T, fs *pager.FileStore, s checkShape) {
		editPage(t, fs, s.inner, func(p []byte) {
			binary.LittleEndian.PutUint32(childEntry(p, 0)[4:], math.Float32bits(1e9)) // x hi
		})
	}},
	{"segment count", false, func(t *testing.T, fs *pager.FileStore, s checkShape) {
		m, lsn, err := decodeMeta(fs.Aux())
		if err != nil {
			t.Fatal(err)
		}
		m.Size += 7
		if err := fs.SetAux(encodeMeta(m, lsn)); err != nil {
			t.Fatal(err)
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
	}},
}

// bustFile opens a second handle on the committed file at path, breaks it
// with bust and drops the handle without a further commit.
func bustFile(t *testing.T, path string, bust func(*testing.T, *pager.FileStore, checkShape)) {
	t.Helper()
	fs, err := pager.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	bust(t, fs, shapeOf(t, fs))
	if err := fs.Crash(); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptCommittedFilesAreRefused breaks each invariant of the tree
// check in a committed file: recovery must refuse every case with
// ErrCorrupt, and one scrub tick over an open database must count every
// case but the segment total.
func TestCorruptCommittedFilesAreRefused(t *testing.T) {
	dir := t.TempDir()
	clean := filepath.Join(dir, "clean.dynq")
	buildCheckFile(t, clean, 6000)
	image, err := os.ReadFile(clean)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range corruptCases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "db.dynq")
			if err := os.WriteFile(path, image, 0o644); err != nil {
				t.Fatal(err)
			}
			bustFile(t, path, c.bust)
			if _, _, err := OpenFileRecoverWith(path, RecoverOptions{}); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("recovery: got %v, want ErrCorrupt", err)
			}
			if !c.scrub {
				return
			}
			if err := os.WriteFile(path, image, 0o644); err != nil {
				t.Fatal(err)
			}
			clk := &chaosClock{t: time.Unix(1_700_000_000, 0)}
			db, faults, err := openFaulted(path, recoverSpec{
				maint: maintPolicy{scrubPagesPerSec: 1_000_000}, clock: clk.Now,
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			bustFile(t, path, c.bust)
			// Commit once through the database's own store, so the pass
			// begins past the rewrite and reads the broken page.
			if err := faults.Inner.(*pager.FileStore).Sync(); err != nil {
				t.Fatal(err)
			}
			db.maint.tick()
			if n := db.maint.scrubCorruptCount.Load(); n == 0 {
				t.Fatalf("one scrub tick counted no corruption (%d passes, %d pages)",
					db.maint.scrubPassCount.Load(), db.maint.scrubPageCount.Load())
			}
			if !db.Degraded() {
				t.Fatal("the scrub's corruption did not degrade the database")
			}
		})
	}
	t.Run("clean", func(t *testing.T) {
		clk := &chaosClock{t: time.Unix(1_700_000_000, 0)}
		db, _, err := openFaulted(clean, recoverSpec{
			maint: maintPolicy{scrubPagesPerSec: 1_000_000}, clock: clk.Now,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if rep := db.recovery[0]; rep.InternalPages != 3 || rep.Segments != 6000 {
			t.Fatalf("clean file: %s", rep)
		}
		db.maint.tick()
		if n := db.maint.scrubCorruptCount.Load(); n != 0 || db.maint.scrubPassCount.Load() != 1 {
			t.Fatalf("scrub of the clean file: %d corruptions, %d passes", n, db.maint.scrubPassCount.Load())
		}
	})
}

// scrubReads records the pages the scrub reads: it alone reads with
// ReadPageEpoch through the unit's store.
type scrubReads struct {
	*pager.FileStore
	ids []pager.PageID
}

func (s *scrubReads) ReadPageEpoch(id pager.PageID, buf []byte) (uint64, error) {
	s.ids = append(s.ids, id)
	return s.FileStore.ReadPageEpoch(id, buf)
}

// TestScrubBudgetUnderRewrites scrubs one page per tick while a writer
// inserts and checkpoints between ticks. Each pass must find nothing and
// read exactly the pages of the tree committed when it began that hang
// below pages it checked — checking those not rewritten by then and
// skipping the rest with their subtrees.
func TestScrubBudgetUnderRewrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.dynq")
	buildCheckFile(t, path, 6000)
	reads := &scrubReads{}
	clk := &chaosClock{t: time.Unix(1_700_000_000, 0)}
	e, err := recoverEngine(recoverSpec{
		lay: singleLayout(path), units: 1, clock: clk.Now,
		maint: maintPolicy{scrubPagesPerSec: 4}, // 1 page per 250 ms tick
		wrapStore: func(_ int, fs *pager.FileStore) pager.Store {
			reads.FileStore = fs
			return reads
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	db := &DB{e}
	defer db.Close()
	fs := reads.FileStore
	r := rand.New(rand.NewSource(9))
	next := ObjectID(1 << 40)
	var skippedInner, checked int
	for pass := 0; pass < 2; pass++ {
		// The tree this pass walks: the committed one.
		m, _, err := decodeMeta(fs.Aux())
		if err != nil {
			t.Fatal(err)
		}
		children := map[pager.PageID][]pager.PageID{}
		for queue := []pager.PageID{m.Root}; len(queue) > 0; queue = queue[1:] {
			n := decodePage(t, fs, m.Config, queue[0])
			for _, c := range n.Children {
				children[n.ID] = append(children[n.ID], c.ID)
				queue = append(queue, c.ID)
			}
		}
		passSeq := fs.CommittedSeq()
		want := map[pager.PageID]bool{m.Root: true} // pages the pass must read
		read := map[pager.PageID]bool{}
		passes := db.maint.scrubPassCount.Load()
		for tick := 0; db.maint.scrubPassCount.Load() == passes; tick++ {
			if tick > 1000 {
				t.Fatal("scrub pass never ended")
			}
			reads.ids = reads.ids[:0]
			clk.Advance(maintInterval)
			db.maint.tick()
			if len(reads.ids) != 1 {
				t.Fatalf("pass %d tick %d read %d pages, want 1", pass, tick, len(reads.ids))
			}
			id := reads.ids[0]
			if read[id] || !want[id] {
				t.Fatalf("pass %d read page %d again or off the committed tree", pass, id)
			}
			read[id] = true
			// The page was checked, and its children are due, unless the
			// writer rewrote it before this tick.
			epoch, err := fs.ReadPageEpoch(id, make([]byte, pager.PageSize))
			if err != nil {
				t.Fatal(err)
			}
			if epoch <= passSeq {
				checked++
				for _, c := range children[id] {
					want[c] = true
				}
			} else if len(children[id]) > 0 {
				skippedInner++
			}
			// Rewrite a leaf near one corner, and checkpoint.
			batch := genSoakBatch(r, 1, &next)
			for i := range batch {
				x, y := r.Float64()*3, r.Float64()*3
				batch[i].seg.From, batch[i].seg.To = []float64{x, y}, []float64{x + 1, y + 1}
			}
			if err := db.ApplyUpdates(context.Background(), toUpdates(batch), WriteOptions{}); err != nil {
				t.Fatal(err)
			}
			if err := db.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		if len(read) != len(want) {
			t.Fatalf("pass %d read %d pages, %d hang below checked ones", pass, len(read), len(want))
		}
		if n := db.maint.scrubCorruptCount.Load(); n != 0 {
			t.Fatalf("pass %d counted %d corruptions", pass, n)
		}
	}
	// Each pass should skip a subtree and check at least 20 pages.
	if skippedInner < 2 || checked < 40 {
		t.Fatalf("the writes left nothing to test: %d internal pages skipped, %d pages checked", skippedInner, checked)
	}
}

// TestScrubHoldLastsUntilACleanPass scrubs one page per tick over a file
// with one bad leaf: the pass that found it ends ticks later with nothing
// more to count, and that end must not lift the corruption hold, or the
// probe would heal the database over the bad page.
func TestScrubHoldLastsUntilACleanPass(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.dynq")
	buildCheckFile(t, path, 6000)
	clk := &chaosClock{t: time.Unix(1_700_000_000, 0)}
	db, _, err := openFaulted(path, recoverSpec{
		maint: maintPolicy{scrubPagesPerSec: 4, probeBackoff: 10 * time.Millisecond},
		clock: clk.Now,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// Flip a bit in the leaf the pass reads first (the walk takes the last
	// child first), so the pass goes on for many ticks after it.
	bustFile(t, path, func(t *testing.T, fs *pager.FileStore, s checkShape) {
		root := decodePage(t, fs, s.meta.Config, s.meta.Root)
		inner := decodePage(t, fs, s.meta.Config, root.Children[len(root.Children)-1].ID)
		if err := fs.FlipBit(inner.Children[len(inner.Children)-1].ID, 40_003); err != nil {
			t.Fatal(err)
		}
	})
	for db.maint.scrubPassCount.Load() < 2 {
		clk.Advance(maintInterval)
		db.maint.tick()
	}
	if !db.Degraded() || db.maint.scrubCorruptCount.Load() != 2 {
		t.Fatalf("after 2 passes: degraded %v, %d corruptions", db.Degraded(), db.maint.scrubCorruptCount.Load())
	}
	if n := db.maint.probeCount.Load(); n != 0 {
		t.Fatalf("%d probes ran under the corruption hold", n)
	}
}

// TestMaintenanceTelemetryDuringScrub reads the maintenance telemetry
// while the loop scrubs a few pages per tick; the race detector referees
// the scrub cursor both sides touch.
func TestMaintenanceTelemetryDuringScrub(t *testing.T) {
	db, _, _, _ := openMaintTest(t, maintPolicy{scrubPagesPerSec: 8})
	var next ObjectID = 1
	ups := toUpdates(genSoakBatch(rand.New(rand.NewSource(4)), 2000, &next))
	if err := db.ApplyUpdates(context.Background(), ups, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < 200; i++ {
			db.maint.tick()
		}
	}()
	var maxCursor int64
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		tel, ok := db.MaintenanceTelemetry()
		if !ok {
			t.Fatal("no maintenance loop")
		}
		maxCursor = max(maxCursor, tel.ScrubCursor)
	}
	wg.Wait()
	if db.maint.scrubPassCount.Load() == 0 || db.maint.scrubCorruptCount.Load() != 0 {
		t.Fatalf("%d passes, %d corruptions", db.maint.scrubPassCount.Load(), db.maint.scrubCorruptCount.Load())
	}
	if tel, _ := db.MaintenanceTelemetry(); tel.ScrubCursor < 0 || maxCursor > db.maint.scrubPageCount.Load() {
		t.Fatalf("scrub cursor %d (max seen %d) against %d pages scrubbed", tel.ScrubCursor, maxCursor, db.maint.scrubPageCount.Load())
	}
}

// FuzzRecoverTree overwrites bytes of one page of a small committed file
// (two levels: a root over five leaves), keeping its checksum valid, and
// reopens it: recovery must refuse the file with ErrCorrupt or open a
// tree that Validate passes, and never panic or hang.
func FuzzRecoverTree(f *testing.F) {
	clean := filepath.Join(f.TempDir(), "clean.dynq")
	buildCheckFile(f, clean, 300)
	image, err := os.ReadFile(clean)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, page uint8, off uint16, data []byte) {
		path := filepath.Join(t.TempDir(), "db.dynq")
		if err := os.WriteFile(path, image, 0o644); err != nil {
			t.Fatal(err)
		}
		fs, err := pager.OpenFileStore(path)
		if err != nil {
			t.Fatal(err)
		}
		id := pager.PageID(int(page) % fs.NumPages())
		buf := make([]byte, pager.PageSize)
		if err := fs.ReadPage(id, buf); err != nil {
			t.Fatal(err)
		}
		copy(buf[int(off)%pager.PageSize:], data)
		if err := fs.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
		if err := fs.Close(); err != nil { // Close commits
			t.Fatal(err)
		}
		db, _, err := OpenFileRecoverWith(path, RecoverOptions{})
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("recovery failed without ErrCorrupt: %v", err)
			}
			return
		}
		defer db.Close()
		if err := db.Validate(); err != nil {
			t.Fatalf("recovery opened a tree that Validate refuses: %v", err)
		}
	})
}
