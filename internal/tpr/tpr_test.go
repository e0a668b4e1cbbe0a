package tpr

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dynq/internal/geom"
	"dynq/internal/stats"
	"dynq/internal/trajectory"
)

func randEntry(r *rand.Rand, id uint64, ref float64) Entry {
	return Entry{
		ID:      id,
		RefTime: ref,
		Pos:     geom.Point{r.Float64() * 100, r.Float64() * 100},
		Vel:     geom.Point{r.Float64()*2 - 1, r.Float64()*2 - 1},
	}
}

func buildTree(t testing.TB, n int, seed int64) (*Tree, []Entry) {
	t.Helper()
	// Horizon ≈ the expected time between motion updates: with random
	// velocities, a larger horizon makes the integral metric cluster by
	// velocity instead of position (bounds then grow world-sized by the
	// evaluation time).
	tree, err := New(2, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed))
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = randEntry(r, uint64(i), 0)
		if err := tree.Update(entries[i]); err != nil {
			t.Fatal(err)
		}
	}
	return tree, entries
}

func bruteSearch(entries []Entry, w geom.Box, tw geom.Interval) map[uint64]geom.Interval {
	out := map[uint64]geom.Interval{}
	for _, e := range entries {
		iv := tw
		for i := 0; i < 2 && !iv.Empty(); i++ {
			iv = e.coord(i).SolveBetween(w[i].Lo, w[i].Hi, iv)
		}
		if !iv.Empty() {
			out[e.ID] = iv
		}
	}
	return out
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 10, 16); err == nil {
		t.Error("zero dims should be rejected")
	}
	if _, err := New(2, 0, 16); err == nil {
		t.Error("zero horizon should be rejected")
	}
	if _, err := New(2, 10, 2); err == nil {
		t.Error("tiny fanout should be rejected")
	}
}

func TestUpdateAndGet(t *testing.T) {
	tree, _ := New(2, 10, 16)
	e := Entry{ID: 7, RefTime: 1, Pos: geom.Point{5, 5}, Vel: geom.Point{1, 0}}
	if err := tree.Update(e); err != nil {
		t.Fatal(err)
	}
	if tree.Len() != 1 {
		t.Fatalf("len = %d", tree.Len())
	}
	got, ok := tree.Get(7)
	if !ok || got.Pos[0] != 5 {
		t.Fatalf("get = %+v %v", got, ok)
	}
	// Replace with a newer state.
	e2 := Entry{ID: 7, RefTime: 3, Pos: geom.Point{7, 5}, Vel: geom.Point{0, 1}}
	if err := tree.Update(e2); err != nil {
		t.Fatal(err)
	}
	if tree.Len() != 1 {
		t.Fatalf("len after replace = %d", tree.Len())
	}
	if got, _ := tree.Get(7); got.Vel[1] != 1 {
		t.Fatalf("replacement not applied: %+v", got)
	}
	// Stale update rejected.
	if err := tree.Update(Entry{ID: 7, RefTime: 2, Pos: geom.Point{0, 0}, Vel: geom.Point{0, 0}}); err == nil {
		t.Error("stale update should be rejected")
	}
	// Wrong dims rejected.
	if err := tree.Update(Entry{ID: 8, RefTime: 0, Pos: geom.Point{1}, Vel: geom.Point{0}}); err == nil {
		t.Error("wrong dims should be rejected")
	}
	// Remove.
	if !tree.Remove(7) {
		t.Error("remove existing should report true")
	}
	if tree.Remove(7) {
		t.Error("double remove should report false")
	}
	if tree.Len() != 0 {
		t.Errorf("len = %d", tree.Len())
	}
}

func TestSearchAtMatchesBruteForce(t *testing.T) {
	tree, entries := buildTree(t, 500, 1)
	var c stats.Counters
	for _, tq := range []float64{0, 2.5, 10} {
		got, err := tree.SearchDuring(geom.Box{{Lo: 30, Hi: 50}, {Lo: 30, Hi: 50}}, geom.IntervalOf(tq), &c)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteSearch(entries, geom.Box{{Lo: 30, Hi: 50}, {Lo: 30, Hi: 50}}, geom.IntervalOf(tq))
		if len(got) != len(want) {
			t.Fatalf("t=%g: got %d, want %d", tq, len(got), len(want))
		}
		for _, m := range got {
			if _, ok := want[m.Entry.ID]; !ok {
				t.Errorf("t=%g: unexpected %d", tq, m.Entry.ID)
			}
		}
	}
}

func TestSearchDuringEpisodes(t *testing.T) {
	tree, _ := New(2, 10, 16)
	// Object crossing the window [10,20]×[0,10] from the left at speed 2.
	if err := tree.Update(Entry{ID: 1, RefTime: 0, Pos: geom.Point{0, 5}, Vel: geom.Point{2, 0}}); err != nil {
		t.Fatal(err)
	}
	var c stats.Counters
	got, err := tree.SearchDuring(geom.Box{{Lo: 10, Hi: 20}, {Lo: 0, Hi: 10}}, geom.Interval{Lo: 0, Hi: 100}, &c)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("got %d matches", len(got))
	}
	// Inside while 10 ≤ 2t ≤ 20 ⇒ t ∈ [5,10].
	if math.Abs(got[0].Overlap.Lo-5) > 1e-9 || math.Abs(got[0].Overlap.Hi-10) > 1e-9 {
		t.Errorf("episode = %v, want [5,10]", got[0].Overlap)
	}
	// Historical query rejected after a later update raises "now".
	if err := tree.Update(Entry{ID: 2, RefTime: 50, Pos: geom.Point{0, 0}, Vel: geom.Point{0, 0}}); err != nil {
		t.Fatal(err)
	}
	if _, err := tree.SearchDuring(geom.Box{{Lo: 0, Hi: 10}, {Lo: 0, Hi: 10}}, geom.IntervalOf(10), &c); err == nil {
		t.Error("query before the tree's current time should be rejected")
	}
	// Validation.
	if _, err := tree.SearchDuring(geom.Box{{Lo: 0, Hi: 1}}, geom.IntervalOf(60), &c); err == nil {
		t.Error("dimension mismatch should be rejected")
	}
	if _, err := tree.SearchDuring(geom.Box{{Lo: 0, Hi: 1}, {Lo: 0, Hi: 1}}, geom.Interval{Lo: 61, Hi: 60}, &c); err == nil {
		t.Error("empty window should be rejected")
	}
}

func TestSearchPrunes(t *testing.T) {
	tree, _ := buildTree(t, 2000, 2)
	var c stats.Counters
	if _, err := tree.SearchDuring(geom.Box{{Lo: 40, Hi: 48}, {Lo: 40, Hi: 48}}, geom.IntervalOf(1), &c); err != nil {
		t.Fatal(err)
	}
	s := c.Snapshot()
	// 2000 entries at fanout 16 → ≈125 leaves; a small window must not
	// visit most of them.
	if s.LeafReads > 60 {
		t.Errorf("small window visited %d leaves; pruning ineffective", s.LeafReads)
	}
	if s.Reads() == 0 {
		t.Error("no reads accounted")
	}
}

func TestSearchTrajectory(t *testing.T) {
	tree, entries := buildTree(t, 500, 3)
	traj, err := trajectory.New([]trajectory.Key{
		{T: 0, Window: geom.Box{{Lo: 10, Hi: 20}, {Lo: 40, Hi: 50}}},
		{T: 20, Window: geom.Box{{Lo: 60, Hi: 70}, {Lo: 40, Hi: 50}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var c stats.Counters
	got, err := tree.SearchTrajectory(traj, &c)
	if err != nil {
		t.Fatal(err)
	}
	// Brute force: anticipated position inside the interpolated window.
	want := map[uint64]bool{}
	for _, e := range entries {
		for step := 0; step <= 2000; step++ {
			tt := float64(step) * 0.01
			if traj.WindowAt(tt).ContainsPoint(e.posAt(tt)) {
				want[e.ID] = true
				break
			}
		}
	}
	gotIDs := map[uint64]bool{}
	for _, m := range got {
		gotIDs[m.Entry.ID] = true
		if m.Overlap.Empty() {
			t.Errorf("object %d matched with empty episode", m.Entry.ID)
		}
	}
	for id := range want {
		if !gotIDs[id] {
			t.Errorf("object %d anticipated in view but not returned", id)
		}
	}
	// Sampling may miss sub-centisecond grazes; allow got ⊇ want but not
	// wildly larger.
	if len(gotIDs) > len(want)+5 {
		t.Errorf("returned %d objects, sampling found %d", len(gotIDs), len(want))
	}
	// Trajectory before "now" is rejected.
	if err := tree.Update(Entry{ID: 9999, RefTime: 30, Pos: geom.Point{0, 0}, Vel: geom.Point{0, 0}}); err != nil {
		t.Fatal(err)
	}
	if _, err := tree.SearchTrajectory(traj, &c); err == nil {
		t.Error("past trajectory should be rejected")
	}
}

// Property: after any churn of updates and removes, an instant search equals brute
// force over the surviving states.
func TestChurnProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tree, err := New(2, 10, 8) // small fanout → deep tree
		if err != nil {
			return false
		}
		live := map[uint64]Entry{}
		now := 0.0
		for step := 0; step < 300; step++ {
			switch r.Intn(5) {
			case 0, 1, 2: // upsert
				id := uint64(r.Intn(60))
				if old, ok := live[id]; ok && old.RefTime > now {
					now = old.RefTime
				}
				e := randEntry(r, id, now)
				if err := tree.Update(e); err != nil {
					return false
				}
				live[id] = e
			case 3: // remove
				id := uint64(r.Intn(60))
				_, had := live[id]
				if tree.Remove(id) != had {
					return false
				}
				delete(live, id)
			case 4: // advance time
				now += r.Float64()
			}
		}
		if tree.Len() != len(live) {
			return false
		}
		var entries []Entry
		for _, e := range live {
			entries = append(entries, e)
		}
		var c stats.Counters
		for k := 0; k < 5; k++ {
			lo0, lo1 := r.Float64()*80, r.Float64()*80
			w := geom.Box{{Lo: lo0, Hi: lo0 + 15}, {Lo: lo1, Hi: lo1 + 15}}
			tq := tree.Now() + r.Float64()*10
			got, err := tree.SearchDuring(w, geom.IntervalOf(tq), &c)
			if err != nil {
				return false
			}
			want := bruteSearch(entries, w, geom.IntervalOf(tq))
			if len(got) != len(want) {
				return false
			}
			for _, m := range got {
				if _, ok := want[m.Entry.ID]; !ok {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestTPBRRebaseAndUnion(t *testing.T) {
	a := tpbr{}
	a = a.addEntry(Entry{ID: 1, RefTime: 0, Pos: geom.Point{0, 0}, Vel: geom.Point{1, 0}})
	a = a.addEntry(Entry{ID: 2, RefTime: 0, Pos: geom.Point{10, 10}, Vel: geom.Point{-1, 0}})
	// At t=0: x ∈ [0,10]; at t=5 the box must still contain both objects
	// (x=5 each).
	b5 := a.boxAt(5)
	if !b5[0].ContainsValue(5) {
		t.Errorf("boxAt(5) = %v should contain x=5", b5)
	}
	// Conservative: the box can only grow at border speed.
	if b5[0].Lo < -5-1e-9 || b5[0].Hi > 15+1e-9 {
		t.Errorf("boxAt(5) = %v, want within the border-speed bound [-5,15]", b5)
	}
	// Union with a later-referenced bound.
	var o tpbr
	o = o.addEntry(Entry{ID: 3, RefTime: 2, Pos: geom.Point{50, 50}, Vel: geom.Point{0, 1}})
	u := a.union(o)
	if u.empty() {
		t.Fatal("union empty")
	}
	bu := u.boxAt(2)
	if !bu[0].ContainsValue(50) || !bu[1].ContainsValue(50) {
		t.Errorf("union boxAt(2) = %v should contain (50,50)", bu)
	}
	// Everything covered at later times too.
	bu10 := u.boxAt(10)
	for _, e := range []Entry{
		{RefTime: 0, Pos: geom.Point{0, 0}, Vel: geom.Point{1, 0}},
		{RefTime: 0, Pos: geom.Point{10, 10}, Vel: geom.Point{-1, 0}},
		{RefTime: 2, Pos: geom.Point{50, 50}, Vel: geom.Point{0, 1}},
	} {
		if !bu10.ContainsPoint(e.posAt(10)) {
			t.Errorf("union boxAt(10) = %v misses %v", bu10, e.posAt(10))
		}
	}
}

// Property: a node's tpbr contains every entry's anticipated position at
// every future sample time (the fundamental TPR invariant), verified by
// walking the real tree.
func TestTPBRInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		tree, entries := buildTree(t, 200, seed)
		for _, tt := range []float64{0, 1, 3.7, 9} {
			boxAll := tree.root.bound.boxAt(tt)
			for _, e := range entries {
				if _, ok := tree.byID[e.ID]; !ok {
					continue
				}
				if !boxAll.ContainsPoint(e.posAt(tt)) {
					return false
				}
			}
			if !checkNode(tree.root, tt) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func checkNode(n *node, t float64) bool {
	box := n.bound.boxAt(t)
	if n.leaf {
		for _, e := range n.entries {
			if !box.ContainsPoint(e.posAt(t)) {
				return false
			}
		}
		return true
	}
	for _, ch := range n.children {
		chBox := ch.bound.boxAt(t)
		for i := range box {
			if chBox[i].Lo < box[i].Lo-1e-6 || chBox[i].Hi > box[i].Hi+1e-6 {
				return false
			}
		}
		if !checkNode(ch, t) {
			return false
		}
	}
	return true
}
