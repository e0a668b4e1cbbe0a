package core

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"dynq/internal/geom"
	"dynq/internal/pager"
	"dynq/internal/rtree"
	"dynq/internal/stats"
)

func bruteKNN(entries []rtree.LeafEntry, p geom.Point, t float64, k int) []Neighbor {
	var all []Neighbor
	for _, e := range entries {
		if !e.Seg.T.ContainsValue(t) {
			continue
		}
		all = append(all, Neighbor{ID: e.ID, Seg: e.Seg, Dist: math.Sqrt(e.Seg.DistSqAt(t, p))})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Dist != all[j].Dist {
			return all[i].Dist < all[j].Dist
		}
		return all[i].ID < all[j].ID
	})
	// An object's consecutive segments share an endpoint: keep its nearest.
	var out []Neighbor
	for _, nb := range all {
		if len(out) < k && !slices.ContainsFunc(out, func(o Neighbor) bool { return o.ID == nb.ID }) {
			out = append(out, nb)
		}
	}
	return out
}

func TestKNNMatchesBruteForce(t *testing.T) {
	tree, entries := buildIndex(t, rtree.DefaultConfig(), 500, 50, 21)
	var c stats.Counters
	for _, k := range []int{1, 5, 20} {
		got, err := KNN(tree, geom.Point{50, 50}, 25, k, &c)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteKNN(entries, geom.Point{50, 50}, 25, k)
		if len(got) != len(want) {
			t.Fatalf("k=%d: got %d neighbors, want %d", k, len(got), len(want))
		}
		for i := range got {
			if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
				t.Errorf("k=%d neighbor %d: dist %g, want %g", k, i, got[i].Dist, want[i].Dist)
			}
		}
	}
}

// At the instant one segment of an object ends and the next begins, both
// are alive: the object is still one neighbor, at its nearer distance.
func TestKNNSegmentBoundaryCountsObjectOnce(t *testing.T) {
	tree, entries := buildIndex(t, rtree.DefaultConfig(), 500, 50, 21)
	e := entries[3]
	at := e.Seg.T.Hi
	p := e.Seg.At(at)
	var c stats.Counters
	got, err := KNN(tree, p, at, 3, &c)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteKNN(entries, p, at, 3)
	if len(got) != 3 || len(want) != 3 {
		t.Fatalf("got %d neighbors, brute force %d; want 3", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || got[i].Dist != want[i].Dist {
			t.Errorf("neighbor %d = (id %d, dist %g), want (id %d, dist %g)", i, got[i].ID, got[i].Dist, want[i].ID, want[i].Dist)
		}
	}
	if got[0].ID != e.ID || got[0].Dist != 0 {
		t.Errorf("nearest = (id %d, dist %g), want the object itself at 0", got[0].ID, got[0].Dist)
	}
}

func TestKNNChargesLessThanFullScan(t *testing.T) {
	tree, _ := buildIndex(t, rtree.DefaultConfig(), 2000, 100, 22)
	st, err := tree.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var c stats.Counters
	if _, err := KNN(tree, geom.Point{30, 70}, 50, 10, &c); err != nil {
		t.Fatal(err)
	}
	if reads := c.Snapshot().Reads(); reads >= int64(st.LeafNodes+st.InternalNodes)/2 {
		t.Errorf("kNN read %d nodes of %d; best-first should prune most of the tree",
			reads, st.LeafNodes+st.InternalNodes)
	}
}

func TestKNNValidation(t *testing.T) {
	tree, _ := buildIndex(t, rtree.DefaultConfig(), 50, 20, 23)
	var c stats.Counters
	if _, err := KNN(tree, geom.Point{1}, 5, 3, &c); err == nil {
		t.Error("dimension mismatch should be rejected")
	}
	if _, err := KNN(tree, geom.Point{1, 1}, 5, 0, &c); err == nil {
		t.Error("k=0 should be rejected")
	}
	empty, err := rtree.New(rtree.DefaultConfig(), pager.NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	got, err := KNN(empty, geom.Point{1, 1}, 5, 3, &c)
	if err != nil || got != nil {
		t.Errorf("empty tree kNN = %v, %v", got, err)
	}
}

func TestKNNFewerThanK(t *testing.T) {
	// Only 3 objects alive at the query time.
	tree, err := rtree.New(rtree.DefaultConfig(), pager.NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		seg := geom.Segment{
			T:     geom.Interval{Lo: 0, Hi: 10},
			Start: geom.Point{float64(i * 10), 0},
			End:   geom.Point{float64(i * 10), 10},
		}
		if err := tree.Insert(rtree.ObjectID(i), seg); err != nil {
			t.Fatal(err)
		}
	}
	// And some dead ones.
	for i := 10; i < 15; i++ {
		seg := geom.Segment{
			T:     geom.Interval{Lo: 50, Hi: 60},
			Start: geom.Point{1, 1},
			End:   geom.Point{2, 2},
		}
		if err := tree.Insert(rtree.ObjectID(i), seg); err != nil {
			t.Fatal(err)
		}
	}
	var c stats.Counters
	got, err := KNN(tree, geom.Point{0, 5}, 5, 10, &c)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d neighbors, want 3 (only 3 alive)", len(got))
	}
	if got[0].ID != 0 || got[1].ID != 1 || got[2].ID != 2 {
		t.Errorf("neighbor order = %v", got)
	}
}

// Property: kNN equals brute force for random points, times and k.
func TestKNNProperty(t *testing.T) {
	tree, entries := buildIndex(t, rtree.DefaultConfig(), 200, 40, 25)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := geom.Point{r.Float64() * 100, r.Float64() * 100}
		tt := r.Float64() * 40
		k := 1 + r.Intn(15)
		var c stats.Counters
		got, err := KNN(tree, p, tt, k, &c)
		if err != nil {
			return false
		}
		want := bruteKNN(entries, p, tt, k)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestNaiveSnapshot(t *testing.T) {
	tree, entries := buildIndex(t, rtree.DefaultConfig(), 300, 50, 26)
	var c stats.Counters
	naive := NewNaive(tree, rtree.SearchOptions{}, &c)
	win := geom.Box{{Lo: 20, Hi: 35}, {Lo: 20, Hi: 35}}
	tw := geom.Interval{Lo: 10, Hi: 12}
	got, err := naive.Snapshot(win, tw)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteExact(entries, win, tw)
	gotKeys := resultKeys(got)
	if len(gotKeys) != len(want) {
		t.Fatalf("naive found %d, want %d", len(gotKeys), len(want))
	}
	for k := range want {
		if !gotKeys[k] {
			t.Errorf("missing %+v", k)
		}
	}
	// Each result carries its exact visibility interval.
	for _, r := range got {
		if r.Appear > r.Disappear {
			t.Errorf("inverted episode %+v", r)
		}
		if r.Appear < tw.Lo-1e-9 || r.Disappear > tw.Hi+1e-9 {
			t.Errorf("episode escapes the query window: %+v", r)
		}
	}
	if _, err := naive.Snapshot(win, geom.Interval{Lo: 1, Hi: 0}); err == nil {
		t.Error("empty time window should be rejected")
	}
	// Identical repeat queries cost identical I/O: the baseline has no
	// cross-query state.
	before := c.Snapshot()
	if _, err := naive.Snapshot(win, tw); err != nil {
		t.Fatal(err)
	}
	mid := c.Snapshot()
	if _, err := naive.Snapshot(win, tw); err != nil {
		t.Fatal(err)
	}
	after := c.Snapshot()
	if mid.Sub(before).Reads() != after.Sub(mid).Reads() {
		t.Error("naive repeat queries should cost the same")
	}
}

// TestKNNAllocationBudget pins what a KNN10 query allocates on the
// benchmark's tree (1 000 objects over 100 time units): the answer, the
// queue, the kept entries and the box once each, sized so that they do not
// grow, and the result slab's growth steps — not one allocation per node
// visit or per doubling of a growing slice.
func TestKNNAllocationBudget(t *testing.T) {
	tree, _ := buildIndex(t, rtree.DefaultConfig(), 1000, 100, 61)
	r := rand.New(rand.NewSource(62))
	var c stats.Counters
	allocs := testing.AllocsPerRun(200, func() {
		p := geom.Point{r.Float64() * 100, r.Float64() * 100}
		if nbs, err := KNN(tree, p, r.Float64()*100, 10, &c); err != nil || len(nbs) != 10 {
			t.Fatalf("KNN: %d neighbors, err %v", len(nbs), err)
		}
	})
	if allocs > 10 {
		t.Errorf("KNN10: %.1f allocs per query, budget 10", allocs)
	}
}
