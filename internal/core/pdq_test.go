package core

import (
	"math"
	"math/rand"
	"testing"

	"dynq/internal/geom"
	"dynq/internal/motion"
	"dynq/internal/pager"
	"dynq/internal/rtree"
	"dynq/internal/stats"
	"dynq/internal/trajectory"
	"dynq/internal/workload"
)

// buildIndex creates a tree over a synthetic population.
func buildIndex(t testing.TB, cfg rtree.Config, objects int, duration float64, seed int64) (*rtree.Tree, []rtree.LeafEntry) {
	t.Helper()
	segs, err := motion.GenerateSegments(motion.SimConfig{
		Objects: objects, Dims: 2, WorldSize: 100, Duration: duration,
		Speed: 1, SpeedStd: 0.2, UpdateMean: 1, UpdateStd: 0.25, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]rtree.LeafEntry, len(segs))
	for i, s := range segs {
		entries[i] = rtree.LeafEntry{ID: rtree.ObjectID(s.ObjID), Seg: rtree.QuantizeSegment(s.Seg)}
	}
	tree, err := rtree.BulkLoad(cfg, pager.NewMemStore(), entries)
	if err != nil {
		t.Fatal(err)
	}
	return tree, entries
}

// straightTraj sweeps a w×w window from (x0,y0) along +x at the given
// speed over [t0, t1].
func straightTraj(t testing.TB, x0, y0, w, speed, t0, t1 float64) *trajectory.Trajectory {
	t.Helper()
	tr, err := trajectory.New([]trajectory.Key{
		{T: t0, Window: geom.Box{{Lo: x0, Hi: x0 + w}, {Lo: y0, Hi: y0 + w}}},
		{T: t1, Window: geom.Box{{Lo: x0 + speed*(t1-t0), Hi: x0 + w + speed*(t1-t0)}, {Lo: y0, Hi: y0 + w}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

type episodeKey struct {
	id       rtree.ObjectID
	segStart float64
	appear   float64
}

// bruteEpisodes computes every (segment, visibility episode) pair for a
// trajectory by exact geometry over all entries.
func bruteEpisodes(entries []rtree.LeafEntry, tr *trajectory.Trajectory) map[episodeKey]geom.Interval {
	out := map[episodeKey]geom.Interval{}
	var set geom.IntervalSet
	for _, e := range entries {
		set.Reset()
		tr.OverlapSegment(e.Seg, &set)
		for _, iv := range set.Intervals() {
			out[episodeKey{id: e.ID, segStart: e.Seg.T.Lo, appear: iv.Lo}] = iv
		}
	}
	return out
}

func TestPDQFullDrainMatchesBruteForce(t *testing.T) {
	tree, entries := buildIndex(t, rtree.DefaultConfig(), 300, 50, 1)
	tr := straightTraj(t, 10, 40, 8, 1, 5, 45)
	var c stats.Counters
	pdq, err := NewPDQ(tree, tr, PDQOptions{}, &c)
	if err != nil {
		t.Fatal(err)
	}
	defer pdq.Close()
	span := tr.TimeSpan()
	got, err := pdq.Drain(span.Lo, span.Hi)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteEpisodes(entries, tr)
	if len(got) != len(want) {
		t.Errorf("PDQ returned %d episodes, brute force %d", len(got), len(want))
	}
	const eps = 1e-9
	prevAppear := span.Lo - 1
	for _, r := range got {
		if r.Appear < prevAppear-eps {
			t.Errorf("results out of appear order: %g after %g", r.Appear, prevAppear)
		}
		prevAppear = r.Appear
		k := episodeKey{id: r.ID, segStart: r.Seg.T.Lo, appear: r.Appear}
		iv, ok := want[k]
		if !ok {
			t.Errorf("unexpected episode %+v", k)
			continue
		}
		if abs(iv.Hi-r.Disappear) > eps {
			t.Errorf("episode %+v disappear = %g, want %g", k, r.Disappear, iv.Hi)
		}
		delete(want, k)
	}
	for k := range want {
		t.Errorf("missing episode %+v", k)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestPDQFrameByFrameEqualsFullDrain(t *testing.T) {
	tree, _ := buildIndex(t, rtree.DefaultConfig(), 300, 50, 2)
	tr := straightTraj(t, 10, 40, 8, 1, 5, 45)

	var cAll stats.Counters
	pdqAll, err := NewPDQ(tree, tr, PDQOptions{}, &cAll)
	if err != nil {
		t.Fatal(err)
	}
	defer pdqAll.Close()
	all, err := pdqAll.Drain(5, 45)
	if err != nil {
		t.Fatal(err)
	}

	// The same results must arrive when pulled frame by frame (0.1 time
	// units per frame, the paper's snapshot rate), with no duplicates.
	var cStep stats.Counters
	pdqStep, err := NewPDQ(tree, tr, PDQOptions{}, &cStep)
	if err != nil {
		t.Fatal(err)
	}
	defer pdqStep.Close()
	var stepped []Result
	for f := 0; f < 400; f++ {
		lo := 5 + float64(f)*0.1
		hi := lo + 0.1
		rs, err := pdqStep.Drain(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		stepped = append(stepped, rs...)
	}
	if len(stepped) != len(all) {
		t.Fatalf("frame-by-frame returned %d results, full drain %d", len(stepped), len(all))
	}
	seen := map[episodeKey]bool{}
	for _, r := range all {
		seen[episodeKey{id: r.ID, segStart: r.Seg.T.Lo, appear: r.Appear}] = true
	}
	for _, r := range stepped {
		if !seen[episodeKey{id: r.ID, segStart: r.Seg.T.Lo, appear: r.Appear}] {
			t.Errorf("stepped result %v not in full drain", r.ID)
		}
	}
	// Same I/O, too: the whole point of the algorithm is that frame rate
	// does not multiply disk accesses.
	if cStep.Snapshot().Reads() != cAll.Snapshot().Reads() {
		t.Errorf("stepped reads = %d, full-drain reads = %d (must be identical)",
			cStep.Snapshot().Reads(), cAll.Snapshot().Reads())
	}
}

func TestPDQReadsEachNodeAtMostOnce(t *testing.T) {
	tree, _ := buildIndex(t, rtree.DefaultConfig(), 2000, 100, 3)
	st, err := tree.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// A trajectory sweeping the entire space for the entire duration
	// forces every node to be visited — but none twice.
	tr, err := trajectory.New([]trajectory.Key{
		{T: 0, Window: geom.Box{{Lo: 0, Hi: 100}, {Lo: 0, Hi: 100}}},
		{T: 100, Window: geom.Box{{Lo: 0, Hi: 100}, {Lo: 0, Hi: 100}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var c stats.Counters
	pdq, err := NewPDQ(tree, tr, PDQOptions{}, &c)
	if err != nil {
		t.Fatal(err)
	}
	defer pdq.Close()
	n, err := pdq.Drain(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(n) != tree.Size() {
		t.Errorf("whole-world drain returned %d, index holds %d", len(n), tree.Size())
	}
	s := c.Snapshot()
	total := int64(st.LeafNodes + st.InternalNodes)
	if s.Reads() != total {
		t.Errorf("reads = %d, tree has %d nodes (each must be read exactly once)", s.Reads(), total)
	}
	if s.LeafReads != int64(st.LeafNodes) {
		t.Errorf("leaf reads = %d, want %d", s.LeafReads, st.LeafNodes)
	}
}

func TestPDQBeatsNaiveOnOverlappingFrames(t *testing.T) {
	tree, _ := buildIndex(t, rtree.DefaultConfig(), 1000, 100, 4)
	tr := straightTraj(t, 20, 40, 8, 0.5, 10, 60)

	var cPDQ stats.Counters
	pdq, err := NewPDQ(tree, tr, PDQOptions{}, &cPDQ)
	if err != nil {
		t.Fatal(err)
	}
	defer pdq.Close()
	var cNaive stats.Counters
	naive := NewNaive(tree, rtree.SearchOptions{}, &cNaive)

	frames := 100
	for f := 0; f < frames; f++ {
		lo := 10 + float64(f)*0.5
		hi := lo + 0.5
		if _, err := pdq.Drain(lo, hi); err != nil {
			t.Fatal(err)
		}
		if _, err := naive.Snapshot(tr.WindowAt(lo), geom.Interval{Lo: lo, Hi: hi}); err != nil {
			t.Fatal(err)
		}
	}
	if pr, nr := cPDQ.Snapshot().Reads(), cNaive.Snapshot().Reads(); pr >= nr {
		t.Errorf("PDQ reads (%d) should be far below naive reads (%d)", pr, nr)
	}
	if pd, nd := cPDQ.Snapshot().DistanceComps, cNaive.Snapshot().DistanceComps; pd >= nd {
		t.Errorf("PDQ distance comps (%d) should be below naive (%d)", pd, nd)
	}
}

func TestPDQWindowValidation(t *testing.T) {
	tree, _ := buildIndex(t, rtree.DefaultConfig(), 50, 20, 5)
	tr := straightTraj(t, 10, 10, 8, 1, 0, 10)
	var c stats.Counters
	pdq, err := NewPDQ(tree, tr, PDQOptions{}, &c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pdq.Drain(5, 4); err == nil {
		t.Error("inverted window should error")
	}
	pdq.Close()
	if _, err := pdq.Drain(0, 1); err == nil {
		t.Error("Drain after Close should error")
	}
	pdq.Close() // double close is a no-op
	// Dimension mismatch.
	oneD, err := trajectory.New([]trajectory.Key{
		{T: 0, Window: geom.Box{{Lo: 0, Hi: 1}}},
		{T: 1, Window: geom.Box{{Lo: 0, Hi: 1}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPDQ(tree, oneD, PDQOptions{}, &c); err == nil {
		t.Error("dimension mismatch should be rejected")
	}
}

func TestPDQEmptyTree(t *testing.T) {
	tree, err := rtree.New(rtree.DefaultConfig(), pager.NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	tr := straightTraj(t, 0, 0, 8, 1, 0, 10)
	var c stats.Counters
	pdq, err := NewPDQ(tree, tr, PDQOptions{}, &c)
	if err != nil {
		t.Fatal(err)
	}
	defer pdq.Close()
	if rs, err := pdq.Drain(0, 10); err != nil || len(rs) != 0 {
		t.Errorf("empty tree Drain = %v, %v", rs, err)
	}
}

func TestPDQLiveUpdates(t *testing.T) {
	tree, _ := buildIndex(t, rtree.DefaultConfig(), 200, 100, 6)
	tr := straightTraj(t, 20, 40, 8, 0.5, 10, 90)
	var c stats.Counters
	pdq, err := NewPDQ(tree, tr, PDQOptions{LiveUpdates: true}, &c)
	if err != nil {
		t.Fatal(err)
	}
	defer pdq.Close()

	// Consume the first half of the trajectory.
	firstHalf, err := pdq.Drain(10, 50)
	if err != nil {
		t.Fatal(err)
	}
	returned := map[rtree.ObjectID]bool{}
	for _, r := range firstHalf {
		returned[r.ID] = true
	}

	// Insert objects that sit inside the future query path: the window at
	// t=70 is [50,58]×[40,48].
	for i := 0; i < 20; i++ {
		id := rtree.ObjectID(10000 + i)
		seg := geom.Segment{
			T:     geom.Interval{Lo: 60, Hi: 80},
			Start: geom.Point{52 + float64(i%4), 42 + float64(i/4)},
			End:   geom.Point{52 + float64(i%4), 42 + float64(i/4)},
		}
		if err := tree.Insert(id, seg); err != nil {
			t.Fatal(err)
		}
	}
	// Also insert an object far away that must not appear.
	if err := tree.Insert(99999, geom.Segment{
		T: geom.Interval{Lo: 60, Hi: 80}, Start: geom.Point{5, 5}, End: geom.Point{5, 5},
	}); err != nil {
		t.Fatal(err)
	}

	secondHalf, err := pdq.Drain(50, 90)
	if err != nil {
		t.Fatal(err)
	}
	got := map[rtree.ObjectID]bool{}
	for _, r := range secondHalf {
		got[r.ID] = true
	}
	for i := 0; i < 20; i++ {
		id := rtree.ObjectID(10000 + i)
		if !got[id] {
			t.Errorf("live-inserted object %d missing from PDQ results", id)
		}
	}
	if got[99999] {
		t.Error("far-away inserted object must not be returned")
	}
}

// Under heavy concurrent insertion the session must remain complete: every
// object that overlaps the not-yet-consumed part of the trajectory is
// eventually returned, whether it was present at session start or inserted
// mid-flight (including inserts that split nodes).
func TestPDQLiveUpdatesWithSplits(t *testing.T) {
	tree, entries := buildIndex(t, rtree.DefaultConfig(), 500, 100, 7)
	tr := straightTraj(t, 10, 40, 10, 0.8, 10, 90)
	var c stats.Counters
	pdq, err := NewPDQ(tree, tr, PDQOptions{LiveUpdates: true}, &c)
	if err != nil {
		t.Fatal(err)
	}
	defer pdq.Close()

	if _, err := pdq.Drain(10, 30); err != nil {
		t.Fatal(err)
	}

	// Insert thousands of segments to force leaf and internal splits while
	// the session is live. Half of them are relevant to the remaining
	// trajectory (alive during [40,90] near the future path).
	r := rand.New(rand.NewSource(8))
	var lateEntries []rtree.LeafEntry
	for i := 0; i < 4000; i++ {
		id := rtree.ObjectID(50000 + i)
		var seg geom.Segment
		if i%2 == 0 {
			x := 30 + r.Float64()*50
			y := 35 + r.Float64()*20
			t0 := 40 + r.Float64()*40
			seg = geom.Segment{
				T:     geom.Interval{Lo: t0, Hi: t0 + 5},
				Start: geom.Point{x, y},
				End:   geom.Point{x + r.Float64()*2, y + r.Float64()*2},
			}
		} else {
			// Irrelevant filler that still changes tree structure.
			seg = geom.Segment{
				T:     geom.Interval{Lo: r.Float64() * 20, Hi: 20 + r.Float64()*10},
				Start: geom.Point{r.Float64() * 100, r.Float64() * 20},
				End:   geom.Point{r.Float64() * 100, r.Float64() * 20},
			}
		}
		if err := tree.Insert(id, seg); err != nil {
			t.Fatal(err)
		}
		lateEntries = append(lateEntries, rtree.LeafEntry{ID: id, Seg: rtree.QuantizeSegment(seg)})
	}

	rest, err := pdq.Drain(30, 90)
	if err != nil {
		t.Fatal(err)
	}
	got := map[episodeKey]bool{}
	for _, r := range rest {
		got[episodeKey{id: r.ID, segStart: r.Seg.T.Lo, appear: r.Appear}] = true
	}
	// Every late-inserted entry whose visibility episode begins after
	// t=30 must have been returned.
	var set geom.IntervalSet
	missing := 0
	for _, e := range lateEntries {
		set.Reset()
		tr.OverlapSegment(e.Seg, &set)
		for _, iv := range set.Intervals() {
			if iv.Lo > 30.5 { // safely after the consumed prefix
				if !got[episodeKey{id: e.ID, segStart: e.Seg.T.Lo, appear: iv.Lo}] {
					missing++
				}
			}
		}
	}
	if missing > 0 {
		t.Errorf("%d late-inserted visible episodes were never returned", missing)
	}
	_ = entries
}

func TestPDQLiveAcrossRootSplit(t *testing.T) {
	// Start from a tiny tree (single leaf), then insert enough to split
	// the root while a live session runs: the root's new sibling is
	// patched into the queue like any other new subtree.
	store := pager.NewMemStore()
	tree, err := rtree.New(rtree.DefaultConfig(), store)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		seg := geom.Segment{
			T:     geom.Interval{Lo: float64(i), Hi: float64(i) + 1},
			Start: geom.Point{50, 50},
			End:   geom.Point{50, 50},
		}
		if err := tree.Insert(rtree.ObjectID(i), seg); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := trajectory.New([]trajectory.Key{
		{T: 0, Window: geom.Box{{Lo: 0, Hi: 100}, {Lo: 0, Hi: 100}}},
		{T: 200, Window: geom.Box{{Lo: 0, Hi: 100}, {Lo: 0, Hi: 100}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var c stats.Counters
	pdq, err := NewPDQ(tree, tr, PDQOptions{LiveUpdates: true}, &c)
	if err != nil {
		t.Fatal(err)
	}
	defer pdq.Close()
	if _, err := pdq.Drain(0, 10); err != nil {
		t.Fatal(err)
	}
	// Force a root split (leaf fanout 127).
	for i := 100; i < 300; i++ {
		seg := geom.Segment{
			T:     geom.Interval{Lo: 100 + float64(i%100), Hi: 101 + float64(i%100)},
			Start: geom.Point{float64(i % 100), 50},
			End:   geom.Point{float64(i % 100), 50},
		}
		if err := tree.Insert(rtree.ObjectID(i), seg); err != nil {
			t.Fatal(err)
		}
	}
	got, err := pdq.Drain(10, 200)
	if err != nil {
		t.Fatal(err)
	}
	ids := map[rtree.ObjectID]bool{}
	for _, r := range got {
		ids[r.ID] = true
	}
	missing := 0
	for i := 100; i < 300; i++ {
		if !ids[rtree.ObjectID(i)] {
			missing++
		}
	}
	if missing > 0 {
		t.Errorf("%d objects inserted across the root split were lost", missing)
	}
}

func TestPDQWithSPDQInflation(t *testing.T) {
	tree, entries := buildIndex(t, rtree.DefaultConfig(), 400, 50, 9)
	exact := straightTraj(t, 10, 40, 8, 1, 5, 45)
	inflated, err := exact.Inflate(func(float64) float64 { return 2 })
	if err != nil {
		t.Fatal(err)
	}
	var c1, c2 stats.Counters
	p1, err := NewPDQ(tree, exact, PDQOptions{}, &c1)
	if err != nil {
		t.Fatal(err)
	}
	defer p1.Close()
	p2, err := NewPDQ(tree, inflated, PDQOptions{}, &c2)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	a, err := p1.Drain(5, 45)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p2.Drain(5, 45)
	if err != nil {
		t.Fatal(err)
	}
	// SPDQ retrieves a superset of object ids.
	bIDs := map[rtree.ObjectID]bool{}
	for _, r := range b {
		bIDs[r.ID] = true
	}
	for _, r := range a {
		if !bIDs[r.ID] {
			t.Errorf("object %d visible to exact PDQ missing from SPDQ", r.ID)
		}
	}
	if len(b) < len(a) {
		t.Errorf("SPDQ episodes (%d) should be ≥ PDQ episodes (%d)", len(b), len(a))
	}
	_ = entries
}

// checkSlots requires the arena to hold exactly what the queue names: each
// slot counts the queued object items naming it, a slot no item names is on
// the free list once and holds no entry, and no item names a free slot.
func checkSlots(t *testing.T, what string, p *PDQ) (duplicates int) {
	t.Helper()
	named := make([]int32, len(p.kept.slots))
	keys := map[pdqKey]int{}
	for _, it := range p.pq {
		if it.key.isObj {
			named[it.slot]++
			if keys[it.key]++; keys[it.key] == 2 {
				duplicates++
			}
		}
	}
	free := map[int32]bool{}
	for _, s := range p.kept.free {
		if free[s] {
			t.Fatalf("%s: slot %d is on the free list twice", what, s)
		}
		free[s] = true
	}
	for s, sl := range p.kept.slots {
		switch {
		case sl.refs != named[s]:
			t.Fatalf("%s: slot %d counts %d items, the queue names it %d times", what, s, sl.refs, named[s])
		case sl.refs == 0 && (!free[int32(s)] || sl.entry.Seg.Start != nil):
			t.Fatalf("%s: slot %d is named by no item but not freed (on free list %v)", what, s, free[int32(s)])
		case sl.refs > 0 && free[int32(s)]:
			t.Fatalf("%s: slot %d is on the free list with %d items naming it", what, s, sl.refs)
		}
	}
	return duplicates
}

// held is how many arena slots some queued item still names.
func held(p *PDQ) int { return len(p.kept.slots) - len(p.kept.free) }

// Every way an object item leaves the queue — delivered, expired, dropped as
// a duplicate, or discarded by a rebuild from the root — releases its hold on
// the arena slot of its entry: a session that has drained its span holds
// none.
func TestPDQQueueSlotsReleased(t *testing.T) {
	t.Run("drained", func(t *testing.T) {
		tree, _ := buildIndex(t, rtree.DefaultConfig(), 300, 50, 1)
		tr := straightTraj(t, 10, 40, 8, 1, 5, 45)
		var c stats.Counters
		pdq, err := NewPDQ(tree, tr, PDQOptions{}, &c)
		if err != nil {
			t.Fatal(err)
		}
		defer pdq.Close()
		most := 0
		for lo := 5.0; lo < 45; lo += 0.5 {
			if _, err := pdq.Drain(lo, lo+0.5); err != nil {
				t.Fatal(err)
			}
			checkSlots(t, "frame", pdq)
			most = max(most, held(pdq))
		}
		if most == 0 {
			t.Fatal("no entry was ever queued")
		}
		if len(pdq.pq) != 0 || held(pdq) != 0 {
			t.Fatalf("after the whole span: %d items queued, %d slots held", len(pdq.pq), held(pdq))
		}
	})

	t.Run("reseed", func(t *testing.T) {
		tree, entries := buildIndex(t, rtree.DefaultConfig(), 100, 100, 31)
		tr := straightTraj(t, 10, 30, 30, 0.5, 5, 95)
		var c stats.Counters
		pdq, err := NewPDQ(tree, tr, PDQOptions{LiveUpdates: true}, &c)
		if err != nil {
			t.Fatal(err)
		}
		defer pdq.Close()
		if _, err := pdq.Drain(5, 30); err != nil {
			t.Fatal(err)
		}
		before := held(pdq)
		if before == 0 {
			t.Fatal("no entry queued before the deletes")
		}
		reseeds := 0
		defer tree.OnUpdate(func(u rtree.Update) {
			if u.Kind == rtree.UpdateReseed {
				reseeds++
			}
		})()
		for _, e := range entries[len(entries)/5:] {
			if err := tree.Delete(e.ID, e.Seg.T.Lo); err != nil {
				t.Fatal(err)
			}
		}
		if reseeds == 0 {
			t.Fatal("no deletion freed a page: nothing was rebuilt")
		}
		// A zero-length window rebuilds the queue from the root and pops
		// only what starts by its end.
		if _, err := pdq.Drain(30, 30); err != nil {
			t.Fatal(err)
		}
		checkSlots(t, "after the rebuild", pdq)
		if _, err := pdq.Drain(30, 95); err != nil {
			t.Fatal(err)
		}
		if held(pdq) != 0 {
			t.Fatalf("after the whole span: %d slots held (%d before the rebuild)", held(pdq), before)
		}
	})

	t.Run("duplicates", func(t *testing.T) {
		tree, _ := buildIndex(t, rtree.DefaultConfig(), 500, 100, 7)
		tr := straightTraj(t, 10, 40, 10, 0.8, 10, 90)
		var c stats.Counters
		pdq, err := NewPDQ(tree, tr, PDQOptions{LiveUpdates: true}, &c)
		if err != nil {
			t.Fatal(err)
		}
		defer pdq.Close()
		r := rand.New(rand.NewSource(8))
		duplicates := 0
		for lo := 10.0; lo < 90; lo += 0.5 {
			if _, err := pdq.Drain(lo, lo+0.5); err != nil {
				t.Fatal(err)
			}
			duplicates += checkSlots(t, "frame", pdq)
			// Entries ahead of the window split the leaves whose entries
			// are queued already; the split-off nodes are re-inserted at
			// their lowest common ancestor and expand into duplicates.
			for i := 0; i < 40; i++ {
				x, y, t0 := 10+lo*0.8+r.Float64()*30, 40+r.Float64()*10, lo+1+r.Float64()*10
				if err := tree.Insert(rtree.ObjectID(50000+int(lo*100)+i), geom.Segment{
					T: geom.Interval{Lo: t0, Hi: t0 + 3}, Start: geom.Point{x, y}, End: geom.Point{x + 1, y + 1},
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if duplicates == 0 {
			t.Fatal("no duplicate was ever queued: the test exercises nothing")
		}
		if _, err := pdq.Drain(90, 90); err != nil {
			t.Fatal(err)
		}
		if len(pdq.pq) != 0 || held(pdq) != 0 {
			t.Fatalf("after the whole span: %d items queued, %d slots held (%d duplicates seen)", len(pdq.pq), held(pdq), duplicates)
		}
	})
}

// TestPDQGateOnPaperWorkload is the count guard of the swept-box gate
// (geom.SweptBox, applied by rtree.NodeView.NextSwept). On the paper's population (a tenth of it) and
// queries (every overlap and range), sessions drained frame by frame keep
// most of the leaf entries that reach the gate from OverlapMotion. And for
// every entry of a leaf, a trajectory whose swept box begins 1–4 float64
// ulps beyond the entry's end points is declined, too near to prove, while
// the same box a clear step further rejects it. A gate that is unwired,
// never fires or fires without its margin fails here.
func TestPDQGateOnPaperWorkload(t *testing.T) {
	cfg := rtree.DefaultConfig()
	cfg.DualTime = true
	tree, _, err := workload.BuildIndex(cfg, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	tested, rejected := 0, 0
	for _, overlap := range workload.Overlaps {
		for _, side := range workload.Ranges {
			q, err := workload.Generate(workload.PaperQuery(overlap, side), r)
			if err != nil {
				t.Fatal(err)
			}
			p, err := NewPDQ(tree, q.Traj, PDQOptions{}, &stats.Counters{})
			if err != nil {
				t.Fatal(err)
			}
			for _, tw := range q.Times {
				if _, err := p.Drain(tw.Lo, tw.Hi); err != nil {
					t.Fatal(err)
				}
			}
			tested, rejected = tested+p.gate.tested, rejected+p.gate.rejected
			p.Close()
		}
	}
	t.Logf("the gate rejected %d of %d entries", rejected, tested)
	if share := float64(rejected) / float64(tested); tested < 10000 || share < 0.75 {
		t.Errorf("the gate rejected %d of %d entries (%.3f): want at least 0.75 of at least 10 000", rejected, tested, share)
	}

	leaf, level, _ := tree.Root()
	for ; level > 0; level-- {
		if err := tree.View(leaf, nil, func(v rtree.NodeView) error { leaf = v.ChildID(0); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	var e rtree.LeafEntry
	declined, cleared := 0, 0
	err = tree.View(leaf, nil, func(v rtree.NodeView) error {
		for k := 0; k < v.Len(); k++ {
			v.Entry(k, &e)
			tv, x0, x1 := e.Seg.T, e.Seg.Start, e.Seg.End
			// A box beginning lo on axis 0, the whole of axis 1, over the
			// entry's validity and beyond.
			box := func(lo float64) *trajectory.Trajectory {
				w := geom.Box{{Lo: lo, Hi: lo + 10}, {Lo: -1000, Hi: 1000}}
				tr, err := trajectory.New([]trajectory.Key{{T: tv.Lo - 1, Window: w}, {T: tv.Hi + 1, Window: w}})
				if err != nil {
					t.Fatal(err)
				}
				return tr
			}
			near := max(x0[0], x1[0])
			for n := 0; n <= k%4; n++ {
				near = math.Nextafter(near, math.Inf(1))
			}
			// The scan returns the entry it cannot reject, k, or k+1.
			if next, _ := v.NextSwept(k, k+1, tv.Lo, box(near).Swept()); next == k {
				declined++
			}
			if _, rejected := v.NextSwept(k, k+1, tv.Lo, box(near+0.01).Swept()); rejected == 1 {
				cleared++
			}
		}
		if declined != v.Len() || cleared != v.Len() {
			t.Errorf("of %d entries the gate declined %d a few ulps beyond the box and rejected %d a clear step beyond", v.Len(), declined, cleared)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if declined < 50 {
		t.Errorf("only %d near-border entries tried", declined)
	}
}
