package rtree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"dynq/internal/geom"
	"dynq/internal/pager"
	"dynq/internal/stats"
)

// smallConfig shrinks pages' logical fanout indirectly by using high Dims?
// No — fanout is fixed by the page size, so tests that need many splits
// simply insert thousands of segments.

// Height returns the number of levels (0 when empty, 1 for a single leaf).
func (t *Tree) Height() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.height
}

func randSegment(r *rand.Rand) geom.Segment {
	t0 := r.Float64() * 100
	dt := 0.2 + r.Float64()*2
	start := geom.Point{r.Float64() * 100, r.Float64() * 100}
	vel := geom.Point{r.Float64()*2 - 1, r.Float64()*2 - 1}
	return geom.Segment{
		T:     geom.Interval{Lo: t0, Hi: t0 + dt},
		Start: start,
		End:   geom.Point{start[0] + vel[0]*dt, start[1] + vel[1]*dt},
	}
}

func buildRandomTree(t *testing.T, cfg Config, n int, seed int64) (*Tree, []LeafEntry) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	tree, err := New(cfg, pager.NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	var entries []LeafEntry
	for i := 0; i < n; i++ {
		seg := randSegment(r)
		id := ObjectID(i)
		if err := tree.Insert(id, seg); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		entries = append(entries, LeafEntry{ID: id, Seg: QuantizeSegment(seg)})
	}
	return tree, entries
}

func bruteForceRange(entries []LeafEntry, spatial geom.Box, tw geom.Interval) map[ObjectID][]geom.Segment {
	out := map[ObjectID][]geom.Segment{}
	q := append(spatial.Clone(), tw)
	for _, e := range entries {
		if e.Seg.IntersectsBox(q) {
			out[e.ID] = append(out[e.ID], e.Seg)
		}
	}
	return out
}

func assertSameMatches(t *testing.T, got []Match, want map[ObjectID][]geom.Segment) {
	t.Helper()
	gotCount := 0
	for _, m := range got {
		segs, ok := want[m.ID]
		found := false
		for _, s := range segs {
			if s.T == m.Seg.T {
				found = true
				break
			}
		}
		if !ok || !found {
			t.Errorf("unexpected match: obj %d seg %v", m.ID, m.Seg.T)
			continue
		}
		gotCount++
	}
	wantCount := 0
	for _, segs := range want {
		wantCount += len(segs)
	}
	if gotCount != wantCount || len(got) != wantCount {
		t.Errorf("match count = %d, want %d", len(got), wantCount)
	}
}

func TestEmptyTree(t *testing.T) {
	tree, err := New(DefaultConfig(), pager.NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	if tree.Size() != 0 || tree.Height() != 0 {
		t.Error("fresh tree should be empty")
	}
	if _, _, ok := tree.Root(); ok {
		t.Error("empty tree should have no root")
	}
	var c stats.Counters
	ms, err := tree.RangeSearch(geom.Box{{Lo: 0, Hi: 1}, {Lo: 0, Hi: 1}}, geom.Interval{Lo: 0, Hi: 1}, SearchOptions{}, &c)
	if err != nil || len(ms) != 0 {
		t.Errorf("empty search: %v %v", ms, err)
	}
	if err := tree.Validate(); err != nil {
		t.Errorf("validate empty: %v", err)
	}
	if err := tree.Delete(1, 0); err != ErrNotFound {
		t.Errorf("delete on empty = %v", err)
	}
}

func TestInsertRejectsBadSegments(t *testing.T) {
	tree, _ := New(DefaultConfig(), pager.NewMemStore())
	bad := geom.Segment{T: geom.Interval{Lo: 1, Hi: 0}, Start: geom.Point{0, 0}, End: geom.Point{1, 1}}
	if err := tree.Insert(1, bad); err == nil {
		t.Error("empty validity interval should be rejected")
	}
	wrongDims := geom.Segment{T: geom.Interval{Lo: 0, Hi: 1}, Start: geom.Point{0}, End: geom.Point{1}}
	if err := tree.Insert(1, wrongDims); err == nil {
		t.Error("wrong dimensionality should be rejected")
	}
}

func TestInsertSearchSmall(t *testing.T) {
	tree, entries := buildRandomTree(t, DefaultConfig(), 100, 1)
	if tree.Size() != 100 {
		t.Fatalf("size = %d", tree.Size())
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	var c stats.Counters
	spatial := geom.Box{{Lo: 20, Hi: 50}, {Lo: 20, Hi: 50}}
	tw := geom.Interval{Lo: 10, Hi: 40}
	got, err := tree.RangeSearch(spatial, tw, SearchOptions{}, &c)
	if err != nil {
		t.Fatal(err)
	}
	assertSameMatches(t, got, bruteForceRange(entries, spatial, tw))
	if c.Snapshot().Reads() == 0 {
		t.Error("search should have charged disk accesses")
	}
}

func TestInsertSearchLargeWithSplits(t *testing.T) {
	// Enough entries to force leaf and internal splits (leaf fanout 127).
	t.Run("quadratic", func(t *testing.T) {
		tree, entries := buildRandomTree(t, DefaultConfig(), 3000, 2)
		if tree.Height() < 2 {
			t.Fatalf("expected splits; height = %d", tree.Height())
		}
		if err := tree.Validate(); err != nil {
			t.Fatalf("validate: %v", err)
		}
		for _, q := range []struct {
			spatial geom.Box
			tw      geom.Interval
		}{
			{geom.Box{{Lo: 0, Hi: 10}, {Lo: 0, Hi: 10}}, geom.Interval{Lo: 0, Hi: 100}},
			{geom.Box{{Lo: 40, Hi: 60}, {Lo: 40, Hi: 60}}, geom.Interval{Lo: 50, Hi: 55}},
			{geom.Box{{Lo: 0, Hi: 100}, {Lo: 0, Hi: 100}}, geom.Interval{Lo: 99, Hi: 100}},
			{geom.Box{{Lo: -10, Hi: -5}, {Lo: 0, Hi: 100}}, geom.Interval{Lo: 0, Hi: 100}}, // nothing there
		} {
			var c stats.Counters
			got, err := tree.RangeSearch(q.spatial, q.tw, SearchOptions{}, &c)
			if err != nil {
				t.Fatal(err)
			}
			assertSameMatches(t, got, bruteForceRange(entries, q.spatial, q.tw))
		}
	})
}

func TestDualTimeSearch(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DualTime = true
	tree, entries := buildRandomTree(t, cfg, 2000, 3)
	if err := tree.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	var c stats.Counters
	spatial := geom.Box{{Lo: 30, Hi: 45}, {Lo: 10, Hi: 80}}
	tw := geom.Interval{Lo: 20, Hi: 21}
	got, err := tree.RangeSearch(spatial, tw, SearchOptions{}, &c)
	if err != nil {
		t.Fatal(err)
	}
	assertSameMatches(t, got, bruteForceRange(entries, spatial, tw))
}

// Property: insert-then-search finds exactly the brute-force answer for
// random workloads and random queries.
func TestSearchMatchesBruteForceProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		cfg.DualTime = r.Intn(2) == 0
		tree, err := New(cfg, pager.NewMemStore())
		if err != nil {
			return false
		}
		var entries []LeafEntry
		n := 200 + r.Intn(400)
		for i := 0; i < n; i++ {
			seg := randSegment(r)
			if err := tree.Insert(ObjectID(i), seg); err != nil {
				return false
			}
			entries = append(entries, LeafEntry{ID: ObjectID(i), Seg: QuantizeSegment(seg)})
		}
		if err := tree.Validate(); err != nil {
			return false
		}
		for k := 0; k < 5; k++ {
			spatial := geom.Box{
				{Lo: r.Float64() * 80},
				{Lo: r.Float64() * 80},
			}
			spatial[0].Hi = spatial[0].Lo + r.Float64()*30
			spatial[1].Hi = spatial[1].Lo + r.Float64()*30
			lo := r.Float64() * 90
			tw := geom.Interval{Lo: lo, Hi: lo + r.Float64()*10}
			var c stats.Counters
			got, err := tree.RangeSearch(spatial, tw, SearchOptions{}, &c)
			if err != nil {
				return false
			}
			want := bruteForceRange(entries, spatial, tw)
			wantCount := 0
			for _, segs := range want {
				wantCount += len(segs)
			}
			if len(got) != wantCount {
				return false
			}
			for _, m := range got {
				ok := false
				for _, s := range want[m.ID] {
					if s.T == m.Seg.T {
						ok = true
					}
				}
				if !ok {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

func TestTreeStats(t *testing.T) {
	tree, _ := buildRandomTree(t, DefaultConfig(), 2000, 5)
	st, err := tree.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Segments != 2000 || st.LeafNodes == 0 || st.Height != tree.Height() {
		t.Errorf("stats = %+v", st)
	}
	if st.AvgLeafFill <= 0 || st.AvgLeafFill > 1 {
		t.Errorf("leaf fill = %v", st.AvgLeafFill)
	}
	if st.MaxLeafFan != 127 || st.MaxIntFan != 145 {
		t.Errorf("fanouts = %d/%d", st.MaxLeafFan, st.MaxIntFan)
	}
}

func TestDelete(t *testing.T) {
	tree, entries := buildRandomTree(t, DefaultConfig(), 1000, 6)
	r := rand.New(rand.NewSource(7))
	// Delete half the entries in random order.
	perm := r.Perm(len(entries))
	removed := map[int]bool{}
	for _, i := range perm[:500] {
		e := entries[i]
		if err := tree.Delete(e.ID, e.Seg.T.Lo); err != nil {
			t.Fatalf("delete %d: %v", e.ID, err)
		}
		removed[i] = true
	}
	if tree.Size() != 500 {
		t.Fatalf("size after deletes = %d", tree.Size())
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("validate after deletes: %v", err)
	}
	// Deleted entries are gone; remaining entries are still found.
	var live []LeafEntry
	for i, e := range entries {
		if !removed[i] {
			live = append(live, e)
		}
	}
	var c stats.Counters
	got, err := tree.RangeSearch(geom.Box{{Lo: 0, Hi: 100}, {Lo: 0, Hi: 100}}, geom.Interval{Lo: 0, Hi: 200}, SearchOptions{}, &c)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(live) {
		t.Errorf("post-delete search found %d, want %d", len(got), len(live))
	}
	// Deleting again reports not found.
	if err := tree.Delete(entries[perm[0]].ID, entries[perm[0]].Seg.T.Lo); err != ErrNotFound {
		t.Errorf("double delete = %v", err)
	}
	// Delete everything: tree becomes empty.
	sort.Slice(live, func(i, j int) bool { return live[i].ID < live[j].ID })
	for _, e := range live {
		if err := tree.Delete(e.ID, e.Seg.T.Lo); err != nil {
			t.Fatalf("final delete %d: %v", e.ID, err)
		}
	}
	if tree.Size() != 0 || tree.Height() != 0 {
		t.Errorf("tree should be empty: size=%d height=%d", tree.Size(), tree.Height())
	}
	if err := tree.Validate(); err != nil {
		t.Errorf("validate empty: %v", err)
	}
}

func TestRestoreMeta(t *testing.T) {
	store := pager.NewMemStore()
	cfg := DefaultConfig()
	tree, err := New(cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(8))
	var entries []LeafEntry
	for i := 0; i < 500; i++ {
		seg := randSegment(r)
		tree.Insert(ObjectID(i), seg)
		entries = append(entries, LeafEntry{ID: ObjectID(i), Seg: QuantizeSegment(seg)})
	}
	m := tree.Meta()
	tree2, err := Restore(m.Config, store, m.Root, m.Height, m.Size, m.ModSeq)
	if err != nil {
		t.Fatal(err)
	}
	if tree2.Size() != 500 || tree2.Height() != tree.Height() {
		t.Errorf("restored shape: size=%d height=%d", tree2.Size(), tree2.Height())
	}
	var c stats.Counters
	spatial := geom.Box{{Lo: 0, Hi: 50}, {Lo: 0, Hi: 50}}
	tw := geom.Interval{Lo: 0, Hi: 50}
	got, err := tree2.RangeSearch(spatial, tw, SearchOptions{}, &c)
	if err != nil {
		t.Fatal(err)
	}
	assertSameMatches(t, got, bruteForceRange(entries, spatial, tw))
}

func TestBufferedTreeCountsFewerStoreReads(t *testing.T) {
	store := pager.NewMemStore()
	cfg := DefaultConfig()
	tree, err := NewBuffered(cfg, store, 4096)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 2000; i++ {
		tree.Insert(ObjectID(i), randSegment(r))
	}
	var c stats.Counters
	spatial := geom.Box{{Lo: 10, Hi: 30}, {Lo: 10, Hi: 30}}
	tw := geom.Interval{Lo: 10, Hi: 12}
	if _, err := tree.RangeSearch(spatial, tw, SearchOptions{}, &c); err != nil {
		t.Fatal(err)
	}
	firstMisses, firstHits := tree.Pool().Misses(), tree.Pool().Hits()
	if _, err := tree.RangeSearch(spatial, tw, SearchOptions{}, &c); err != nil {
		t.Fatal(err)
	}
	if tree.Pool().Misses() != firstMisses {
		t.Errorf("repeat query should be fully buffered: misses %d -> %d", firstMisses, tree.Pool().Misses())
	}
	if tree.Pool().Hits() == firstHits {
		t.Error("expected buffer hits on the repeat query")
	}
}
