package rtree

import (
	"math"
	"math/rand"
	"testing"

	"dynq/internal/geom"
	"dynq/internal/pager"
	"dynq/internal/stats"
)

func randEntries(n int, seed int64) []LeafEntry {
	r := rand.New(rand.NewSource(seed))
	entries := make([]LeafEntry, n)
	for i := range entries {
		entries[i] = LeafEntry{ID: ObjectID(i), Seg: randSegment(r)}
	}
	return entries
}

func TestBulkLoadEmpty(t *testing.T) {
	tree, err := BulkLoad(DefaultConfig(), pager.NewMemStore(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Size() != 0 || tree.Height() != 0 {
		t.Error("bulk loading nothing should yield an empty tree")
	}
}

func TestBulkLoadSmall(t *testing.T) {
	entries := randEntries(50, 1)
	tree, err := BulkLoad(DefaultConfig(), pager.NewMemStore(), entries)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Size() != 50 || tree.Height() != 1 {
		t.Errorf("size=%d height=%d, want 50/1", tree.Size(), tree.Height())
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBulkLoadLargeMatchesBruteForce(t *testing.T) {
	entries := randEntries(20000, 2)
	tree, err := BulkLoad(DefaultConfig(), pager.NewMemStore(), entries)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	// Height check: 20000 / 63 ≈ 318 leaves, / 72 ≈ 5, / 72 → 1: height 3.
	if tree.Height() != 3 {
		t.Errorf("height = %d, want 3", tree.Height())
	}
	st, err := tree.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// Bulk fill should be close to the configured 0.5 (the last node of a
	// level may be emptier).
	if st.AvgLeafFill < 0.42 || st.AvgLeafFill > 0.55 {
		t.Errorf("leaf fill = %v, want ≈0.5", st.AvgLeafFill)
	}
	quant := make([]LeafEntry, len(entries))
	for i, e := range entries {
		quant[i] = LeafEntry{ID: e.ID, Seg: QuantizeSegment(e.Seg)}
	}
	for _, q := range []struct {
		spatial geom.Box
		tw      geom.Interval
	}{
		{geom.Box{{Lo: 10, Hi: 18}, {Lo: 40, Hi: 48}}, geom.Interval{Lo: 20, Hi: 20.5}},
		{geom.Box{{Lo: 0, Hi: 100}, {Lo: 0, Hi: 100}}, geom.Interval{Lo: 0, Hi: 1}},
		{geom.Box{{Lo: 77, Hi: 99}, {Lo: 1, Hi: 9}}, geom.Interval{Lo: 90, Hi: 102}},
	} {
		var c stats.Counters
		got, err := tree.RangeSearch(q.spatial, q.tw, SearchOptions{}, &c)
		if err != nil {
			t.Fatal(err)
		}
		assertSameMatches(t, got, bruteForceRange(quant, q.spatial, q.tw))
	}
}

func TestBulkLoadThenInsertAndDelete(t *testing.T) {
	entries := randEntries(5000, 3)
	tree, err := BulkLoad(DefaultConfig(), pager.NewMemStore(), entries)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(4))
	var extra []LeafEntry
	for i := 0; i < 500; i++ {
		e := LeafEntry{ID: ObjectID(100000 + i), Seg: randSegment(r)}
		if err := tree.Insert(e.ID, e.Seg); err != nil {
			t.Fatal(err)
		}
		extra = append(extra, LeafEntry{ID: e.ID, Seg: QuantizeSegment(e.Seg)})
	}
	if tree.Size() != 5500 {
		t.Fatalf("size = %d", tree.Size())
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("validate after mixed load: %v", err)
	}
	for _, e := range extra[:100] {
		if err := tree.Delete(e.ID, e.Seg.T.Lo); err != nil {
			t.Fatalf("delete: %v", err)
		}
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("validate after deletes: %v", err)
	}
	if tree.Size() != 5400 {
		t.Errorf("size = %d", tree.Size())
	}
}

func TestBulkLoadPaperScaleShape(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale build skipped in -short mode")
	}
	// The paper's index: ~502k segments, fill 0.5, fanout 145/127 → the
	// leaf level needs ~7900 nodes and the tree 4 levels (the paper counts
	// height 3, i.e. internal levels; either way the shape must be stable).
	entries := randEntries(502504, 5)
	tree, err := BulkLoad(DefaultConfig(), pager.NewMemStore(), entries)
	if err != nil {
		t.Fatal(err)
	}
	st, err := tree.Stats()
	if err != nil {
		t.Fatal(err)
	}
	wantLeaves := int(math.Ceil(502504.0 / 63.0))
	if st.LeafNodes < wantLeaves-10 || st.LeafNodes > wantLeaves+220 {
		t.Errorf("leaf nodes = %d, want ≈%d", st.LeafNodes, wantLeaves)
	}
	if tree.Height() != 4 {
		t.Errorf("height = %d, want 4 (root + 2 internal + leaf)", tree.Height())
	}
}

// Property: bulk-loaded trees answer exactly like insert-built trees.
func TestBulkLoadEquivalentToInserts(t *testing.T) {
	entries := randEntries(800, 6)
	bulk, err := BulkLoad(DefaultConfig(), pager.NewMemStore(), entries)
	if err != nil {
		t.Fatal(err)
	}
	incr, err := New(DefaultConfig(), pager.NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := incr.Insert(e.ID, e.Seg); err != nil {
			t.Fatal(err)
		}
	}
	r := rand.New(rand.NewSource(7))
	for k := 0; k < 10; k++ {
		lo0, lo1 := r.Float64()*80, r.Float64()*80
		spatial := geom.Box{{Lo: lo0, Hi: lo0 + 15}, {Lo: lo1, Hi: lo1 + 15}}
		start := r.Float64() * 95
		tw := geom.Interval{Lo: start, Hi: start + 3}
		var c1, c2 stats.Counters
		a, err := bulk.RangeSearch(spatial, tw, SearchOptions{}, &c1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := incr.RangeSearch(spatial, tw, SearchOptions{}, &c2)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Errorf("query %d: bulk found %d, incremental found %d", k, len(a), len(b))
		}
	}
}

// The bulk loader assembles each page in place and writes the bytes the
// Node-based loader (refBulkLoad) wrote, page for page, in both layouts and
// Dims 1–3, at three sizes: one leaf; a population whose time slabs end
// inside leaves, so leaves straddle a slab border; and a three-level tree.
func TestBulkLoadMatchesReference(t *testing.T) {
	for _, dual := range []bool{false, true} {
		for dims := 1; dims <= 3; dims++ {
			cfg := DefaultConfig()
			cfg.Dims, cfg.DualTime = dims, dual
			leafCap := int(float64(cfg.MaxLeafEntries()) * cfg.BulkFill)
			intCap := int(float64(cfg.MaxInternalEntries()) * cfg.BulkFill)
			for _, n := range []int{leafCap, 9*leafCap + 7, leafCap*intCap + 1} {
				entries := gridEntries(cfg, n, int64(n))
				gs, ws := pager.NewMemStore(), pager.NewMemStore()
				got, err := BulkLoad(cfg, gs, entries)
				if err != nil {
					t.Fatal(err)
				}
				want, err := refBulkLoad(cfg, ws, entries)
				if err != nil {
					t.Fatal(err)
				}
				if got.Meta() != want.Meta() {
					t.Fatalf("dims %d dual %v, %d segments: meta %+v, reference %+v", dims, dual, n, got.Meta(), want.Meta())
				}
				r := &editRig{t: t, gs: gs, ws: ws}
				r.samePages("bulk-loaded stores")
				switch n {
				case leafCap:
					if got.height != 1 {
						t.Fatalf("dims %d dual %v: %d segments make height %d, want one leaf", dims, dual, n, got.height)
					}
				case 9*leafCap + 7:
					quant := make([]LeafEntry, n)
					for i, e := range entries {
						quant[i] = LeafEntry{ID: e.ID, Seg: QuantizeSegment(e.Seg)}
					}
					slabs := timeSlabs(cfg, quant, leafCap)
					if slabs < 2 || (n+slabs-1)/slabs%leafCap == 0 {
						t.Fatalf("dims %d dual %v: %d slabs of %d segments: no leaf straddles a slab border", dims, dual, slabs, (n+slabs-1)/slabs)
					}
				default:
					if got.height != 3 {
						t.Fatalf("dims %d dual %v: %d segments make height %d, want 3", dims, dual, n, got.height)
					}
				}
			}
		}
	}
}
