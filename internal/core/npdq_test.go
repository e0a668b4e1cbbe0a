package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dynq/internal/geom"
	"dynq/internal/pager"
	"dynq/internal/rtree"
	"dynq/internal/stats"
)

func dualConfig() rtree.Config {
	cfg := rtree.DefaultConfig()
	cfg.DualTime = true
	return cfg
}

// frameWindows produces the snapshot sequence of an observer moving along
// +x: window i is [x0+i·step, x0+i·step+w]×[y0,y0+w] over time
// [t0+i·dt, t0+(i+1)·dt].
func frameWindows(x0, y0, w, step, t0, dt float64, n int) (wins []geom.Box, tws []geom.Interval) {
	for i := 0; i < n; i++ {
		x := x0 + float64(i)*step
		wins = append(wins, geom.Box{{Lo: x, Hi: x + w}, {Lo: y0, Hi: y0 + w}})
		lo := t0 + float64(i)*dt
		tws = append(tws, geom.Interval{Lo: lo, Hi: lo + dt})
	}
	return wins, tws
}

// bruteBox returns the box-level (candidate) answer of one snapshot: the
// default NPDQ delivery granularity.
func bruteBox(entries []rtree.LeafEntry, win geom.Box, tw geom.Interval) map[episodeKey]bool {
	q := rtree.QueryBox(win, tw)
	out := map[episodeKey]bool{}
	for _, e := range entries {
		if e.Box(len(win)).Overlaps(q) {
			out[episodeKey{id: e.ID, segStart: e.Seg.T.Lo}] = true
		}
	}
	return out
}

// bruteExact returns the exact-trajectory answer of one snapshot.
func bruteExact(entries []rtree.LeafEntry, win geom.Box, tw geom.Interval) map[episodeKey]bool {
	q := append(win.Clone(), tw)
	out := map[episodeKey]bool{}
	for _, e := range entries {
		if !e.Seg.OverlapTimeInBox(q).Empty() {
			out[episodeKey{id: e.ID, segStart: e.Seg.T.Lo}] = true
		}
	}
	return out
}

// diffFrames computes the expected NPDQ output of frame i: this frame's
// answer minus the previous frame's answer, under the given snapshot
// semantics.
func diffFrames(cur, prev map[episodeKey]bool) map[episodeKey]bool {
	out := map[episodeKey]bool{}
	for k := range cur {
		if !prev[k] {
			out[k] = true
		}
	}
	return out
}

func resultKeys(rs []Result) map[episodeKey]bool {
	out := map[episodeKey]bool{}
	for _, r := range rs {
		out[episodeKey{id: r.ID, segStart: r.Seg.T.Lo}] = true
	}
	return out
}

func assertSameKeys(t *testing.T, frame int, got, want map[episodeKey]bool) {
	t.Helper()
	for k := range want {
		if !got[k] {
			t.Fatalf("frame %d: missing %+v", frame, k)
		}
	}
	for k := range got {
		if !want[k] {
			t.Fatalf("frame %d: unexpected %+v", frame, k)
		}
	}
}

func TestNPDQMatchesBruteForceFrameByFrame(t *testing.T) {
	tree, entries := buildIndex(t, dualConfig(), 400, 60, 11)
	wins, tws := frameWindows(10, 40, 8, 0.4, 5, 0.5, 80)

	var c stats.Counters
	nq := NewNPDQ(tree, NPDQOptions{}, &c)
	prev := map[episodeKey]bool{}
	for i := range wins {
		got, err := nq.Next(wins[i], tws[i])
		if err != nil {
			t.Fatal(err)
		}
		cur := bruteBox(entries, wins[i], tws[i])
		assertSameKeys(t, i, resultKeys(got), diffFrames(cur, prev))
		prev = cur
	}
}

// Candidate delivery is a superset of exact delivery, and every exact
// result carries its true visibility episode.
func TestNPDQCandidatesCoverExactAnswers(t *testing.T) {
	tree, entries := buildIndex(t, dualConfig(), 400, 60, 12)
	wins, tws := frameWindows(10, 40, 8, 0.4, 5, 0.5, 40)
	var c stats.Counters
	nq := NewNPDQ(tree, NPDQOptions{}, &c)
	delivered := map[episodeKey]bool{}
	for i := range wins {
		got, err := nq.Next(wins[i], tws[i])
		if err != nil {
			t.Fatal(err)
		}
		for k := range resultKeys(got) {
			delivered[k] = true
		}
		// Every exactly-visible segment this frame was delivered this
		// frame or earlier (the client keeps what still matches).
		prevDelivered := bruteBox(entries, wins[i], tws[i])
		for k := range bruteExact(entries, wins[i], tws[i]) {
			if !delivered[k] {
				t.Fatalf("frame %d: exact answer %+v never delivered", i, k)
			}
			if !prevDelivered[k] {
				t.Fatalf("frame %d: exact answer %+v not even a box candidate (impossible)", i, k)
			}
		}
	}
}

func TestNPDQSavesIOAtHighOverlap(t *testing.T) {
	tree, _ := buildIndex(t, dualConfig(), 2000, 100, 13)
	// 99% overlap: step is 1% of the window per frame.
	wins, tws := frameWindows(20, 40, 8, 0.08, 10, 0.1, 50)

	var cNPDQ, cNaive stats.Counters
	nq := NewNPDQ(tree, NPDQOptions{}, &cNPDQ)
	naive := NewNaive(tree, rtree.SearchOptions{}, &cNaive)

	var firstNPDQ, firstNaive int64
	for i := range wins {
		beforeD := cNPDQ.Snapshot()
		if _, err := nq.Next(wins[i], tws[i]); err != nil {
			t.Fatal(err)
		}
		beforeN := cNaive.Snapshot()
		if _, err := naive.Snapshot(wins[i], tws[i]); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			firstNPDQ = cNPDQ.Snapshot().Sub(beforeD).Reads()
			firstNaive = cNaive.Snapshot().Sub(beforeN).Reads()
		}
	}
	// The first snapshot is a plain search: identical cost.
	if firstNPDQ != firstNaive {
		t.Errorf("first query: NPDQ %d reads, naive %d (must match)", firstNPDQ, firstNaive)
	}
	// Subsequent queries: NPDQ strictly cheaper than naive at 99% overlap
	// (the paper's Figure 10 claim).
	dSub := cNPDQ.Snapshot().Reads() - firstNPDQ
	nSub := cNaive.Snapshot().Reads() - firstNaive
	if dSub >= nSub {
		t.Errorf("NPDQ subsequent reads (%d) should be below naive (%d) at 99%% overlap", dSub, nSub)
	}
}

func TestNPDQResetForgetsHistory(t *testing.T) {
	tree, _ := buildIndex(t, dualConfig(), 500, 50, 14)
	win := geom.Box{{Lo: 20, Hi: 28}, {Lo: 40, Hi: 48}}
	var c stats.Counters
	nq := NewNPDQ(tree, NPDQOptions{}, &c)
	first, err := nq.Next(win, geom.Interval{Lo: 10, Hi: 10.5})
	if err != nil {
		t.Fatal(err)
	}
	// Identical repeat query: everything was delivered, nothing new.
	second, err := nq.Next(win, geom.Interval{Lo: 10, Hi: 10.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(second) != 0 {
		t.Errorf("repeat query returned %d results, want 0", len(second))
	}
	// After Reset, the same query returns the full answer again.
	nq.Reset()
	third, err := nq.Next(win, geom.Interval{Lo: 10, Hi: 10.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(third) != len(first) {
		t.Errorf("post-reset query returned %d, want %d", len(third), len(first))
	}
}

func TestNPDQZeroOverlapNoWorseThanNaive(t *testing.T) {
	tree, _ := buildIndex(t, dualConfig(), 2000, 100, 15)
	// Disjoint consecutive windows (0% overlap).
	wins, tws := frameWindows(5, 40, 8, 9, 10, 0.5, 10)
	var cNPDQ, cNaive stats.Counters
	nq := NewNPDQ(tree, NPDQOptions{}, &cNPDQ)
	naive := NewNaive(tree, rtree.SearchOptions{}, &cNaive)
	for i := range wins {
		if _, err := nq.Next(wins[i], tws[i]); err != nil {
			t.Fatal(err)
		}
		if _, err := naive.Snapshot(wins[i], tws[i]); err != nil {
			t.Fatal(err)
		}
	}
	// "If there is no overlap ... the NPDQ algorithm does not cause
	// improvement; neither does it cause harm."
	d, n := cNPDQ.Snapshot().Reads(), cNaive.Snapshot().Reads()
	if d > n {
		t.Errorf("NPDQ reads (%d) exceed naive (%d) at zero overlap", d, n)
	}
}

func TestNPDQValidation(t *testing.T) {
	tree, _ := buildIndex(t, dualConfig(), 50, 20, 16)
	var c stats.Counters
	nq := NewNPDQ(tree, NPDQOptions{}, &c)
	if _, err := nq.Next(geom.Box{{Lo: 0, Hi: 1}}, geom.Interval{Lo: 0, Hi: 1}); err == nil {
		t.Error("dimension mismatch should be rejected")
	}
	if _, err := nq.Next(geom.Box{{Lo: 0, Hi: 1}, {Lo: 0, Hi: 1}}, geom.Interval{Lo: 1, Hi: 0}); err == nil {
		t.Error("empty time window should be rejected")
	}
}

func TestNPDQEmptyTree(t *testing.T) {
	tree, err := rtree.New(dualConfig(), pager.NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	var c stats.Counters
	nq := NewNPDQ(tree, NPDQOptions{}, &c)
	got, err := nq.Next(geom.Box{{Lo: 0, Hi: 8}, {Lo: 0, Hi: 8}}, geom.Interval{Lo: 0, Hi: 1})
	if err != nil || len(got) != 0 {
		t.Errorf("empty tree Next = %v, %v", got, err)
	}
}

// Under concurrent insertion, discardability must not hide new segments:
// a node that P's traversal saw may receive a segment matching Q, and the
// timestamp guard forces Q to visit it.
func TestNPDQConcurrentInsertsNotMissed(t *testing.T) {
	tree, entries := buildIndex(t, dualConfig(), 800, 100, 17)
	wins, tws := frameWindows(20, 40, 10, 0.1, 10, 0.5, 40)

	var c stats.Counters
	nq := NewNPDQ(tree, NPDQOptions{}, &c)
	live := append([]rtree.LeafEntry(nil), entries...)
	r := rand.New(rand.NewSource(18))
	prev := map[episodeKey]bool{}
	for i := range wins {
		// Between frames, insert segments near (and far from) the query.
		if i > 0 {
			for j := 0; j < 30; j++ {
				id := rtree.ObjectID(70000 + i*100 + j)
				x := wins[i][0].Lo - 2 + r.Float64()*12
				y := wins[i][1].Lo - 2 + r.Float64()*12
				t0 := tws[i].Lo - 1
				seg := geom.Segment{
					T:     geom.Interval{Lo: t0, Hi: t0 + 3},
					Start: geom.Point{x, y},
					End:   geom.Point{x + r.Float64(), y + r.Float64()},
				}
				if err := tree.Insert(id, seg); err != nil {
					t.Fatal(err)
				}
				live = append(live, rtree.LeafEntry{ID: id, Seg: rtree.QuantizeSegment(seg)})
			}
		}
		got, err := nq.Next(wins[i], tws[i])
		if err != nil {
			t.Fatal(err)
		}
		cur := bruteBox(live, wins[i], tws[i])
		want := diffFrames(cur, prev)
		gotKeys := resultKeys(got)
		// Completeness: everything new this frame must be delivered.
		for k := range want {
			if !gotKeys[k] {
				t.Fatalf("frame %d: concurrent insert hidden: %+v", i, k)
			}
		}
		// Soundness: only true answers of this frame are delivered; an
		// already-delivered answer may repeat when its leaf was modified
		// since the previous query (suppression is disabled there).
		for k := range gotKeys {
			if !cur[k] {
				t.Fatalf("frame %d: unexpected result %+v", i, k)
			}
		}
		prev = cur
	}
}

// Property: NPDQ equals brute force on random window walks over random
// data.
func TestNPDQBruteForceProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tree, entries := buildIndex(t, dualConfig(), 150, 40, seed)
		var c stats.Counters
		nq := NewNPDQ(tree, NPDQOptions{}, &c)
		x, y := r.Float64()*80, r.Float64()*80
		tNow := r.Float64() * 10
		prev := map[episodeKey]bool{}
		for i := 0; i < 12; i++ {
			x += r.Float64()*4 - 2
			y += r.Float64()*4 - 2
			dt := 0.2 + r.Float64()
			win := geom.Box{{Lo: x, Hi: x + 8}, {Lo: y, Hi: y + 8}}
			tw := geom.Interval{Lo: tNow, Hi: tNow + dt}
			got, err := nq.Next(win, tw)
			if err != nil {
				return false
			}
			cur := bruteBox(entries, win, tw)
			want := diffFrames(cur, prev)
			gotKeys := resultKeys(got)
			if len(gotKeys) != len(want) {
				return false
			}
			for k := range want {
				if !gotKeys[k] {
					return false
				}
			}
			prev = cur
			tNow += dt
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// The dual-temporal-axes layout is what gives NPDQ its pruning power
// (Figure 5). Discardability prunes a node only when its newest segment
// start predates the previous query AND it avoids the query's leading
// edge, so its effect is largest for long-lived objects (the static
// landmarks/sensors of the paper's motivating scenario); this test uses
// such a population to observe the layout contrast cleanly. Comparing raw
// read counts across layouts would conflate pruning with the fanout
// difference (113 vs 145), so compare each layout's savings against its
// own naive baseline.
func TestNPDQDualAxesPruneMoreThanSingle(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	var entries []rtree.LeafEntry
	for i := 0; i < 20000; i++ {
		x, y := r.Float64()*100, r.Float64()*100
		entries = append(entries, rtree.LeafEntry{
			ID: rtree.ObjectID(i),
			Seg: geom.Segment{
				T:     geom.Interval{Lo: r.Float64() * 2, Hi: 90 + r.Float64()*10},
				Start: geom.Point{x, y},
				End:   geom.Point{x + r.Float64(), y + r.Float64()},
			},
		})
	}
	wins, tws := frameWindows(20, 40, 8, 0.8, 10, 0.1, 30) // 90% overlap
	var ratio [2]float64
	for li, cfg := range []rtree.Config{dualConfig(), rtree.DefaultConfig()} {
		tree, err := rtree.BulkLoad(cfg, pager.NewMemStore(), entries)
		if err != nil {
			t.Fatal(err)
		}
		var cN, cB stats.Counters
		nq := NewNPDQ(tree, NPDQOptions{}, &cN)
		naive := NewNaive(tree, rtree.SearchOptions{}, &cB)
		for i := range wins {
			if _, err := nq.Next(wins[i], tws[i]); err != nil {
				t.Fatal(err)
			}
			if _, err := naive.Snapshot(wins[i], tws[i]); err != nil {
				t.Fatal(err)
			}
		}
		ratio[li] = float64(cN.Snapshot().Reads()) / float64(cB.Snapshot().Reads())
	}
	if ratio[0] >= ratio[1] {
		t.Errorf("dual-axes NPDQ/naive read ratio (%.3f) should be below single-axis ratio (%.3f)",
			ratio[0], ratio[1])
	}
	// On long-lived objects the dual layout should discard a large
	// fraction of the covered trailing region.
	if ratio[0] > 0.8 {
		t.Errorf("dual-axes ratio %.3f; expected substantial pruning on long-lived objects", ratio[0])
	}
	// Single-axis discardability is essentially inert (the Figure 5
	// observation): its ratio stays near 1.
	if ratio[1] < 0.9 {
		t.Errorf("single-axis ratio %.3f unexpectedly low; discardability should be inert", ratio[1])
	}
}
