package core

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"dynq/internal/pager"
	"dynq/internal/rtree"
	"dynq/internal/stats"
)

func bruteJoin(a, b []rtree.LeafEntry, delta, t float64, self bool) map[[2]rtree.ObjectID]bool {
	out := map[[2]rtree.ObjectID]bool{}
	for _, ea := range a {
		if !ea.Seg.T.ContainsValue(t) {
			continue
		}
		pa := ea.Seg.At(t)
		for _, eb := range b {
			if !eb.Seg.T.ContainsValue(t) {
				continue
			}
			if self && ea.ID == eb.ID {
				continue
			}
			if pa.Dist(eb.Seg.At(t)) <= delta {
				k := [2]rtree.ObjectID{ea.ID, eb.ID}
				if self && k[0] > k[1] {
					k[0], k[1] = k[1], k[0]
				}
				out[k] = true
			}
		}
	}
	return out
}

func joinKeys(pairs []JoinPair) map[[2]rtree.ObjectID]bool {
	out := map[[2]rtree.ObjectID]bool{}
	for _, p := range pairs {
		out[[2]rtree.ObjectID{p.A, p.B}] = true
	}
	return out
}

func TestSelfDistanceJoinMatchesBruteForce(t *testing.T) {
	tree, entries := buildIndex(t, rtree.DefaultConfig(), 300, 40, 31)
	var c stats.Counters
	for _, tt := range []float64{5, 17.3, 33} {
		got, err := DistanceJoin(tree, tree, 2.0, tt, &c)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteJoin(entries, entries, 2.0, tt, true)
		gk := joinKeys(got)
		if len(gk) != len(want) {
			t.Fatalf("t=%g: %d pairs, want %d", tt, len(gk), len(want))
		}
		if len(gk) != len(got) {
			t.Fatalf("t=%g: duplicate pairs reported", tt)
		}
		for k := range want {
			if !gk[k] {
				t.Errorf("t=%g: missing pair %v", tt, k)
			}
		}
	}
}

func TestCrossDistanceJoinMatchesBruteForce(t *testing.T) {
	treeA, entriesA := buildIndex(t, rtree.DefaultConfig(), 150, 40, 32)
	treeB, entriesB := buildIndex(t, rtree.DefaultConfig(), 150, 40, 33)
	var c stats.Counters
	got, err := DistanceJoin(treeA, treeB, 3.0, 20, &c)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteJoin(entriesA, entriesB, 3.0, 20, false)
	gk := joinKeys(got)
	if len(gk) != len(want) || len(gk) != len(got) {
		t.Fatalf("%d pairs (%d unique), want %d", len(got), len(gk), len(want))
	}
	for k := range want {
		if !gk[k] {
			t.Errorf("missing pair %v", k)
		}
	}
	// Distances are correct and within delta.
	for _, p := range got {
		d := p.SegA.At(20).Dist(p.SegB.At(20))
		if math.Abs(d-p.Dist) > 1e-9 || d > 3.0 {
			t.Errorf("pair (%d,%d) dist %g reported %g", p.A, p.B, d, p.Dist)
		}
	}
}

func TestDistanceJoinValidation(t *testing.T) {
	tree, _ := buildIndex(t, rtree.DefaultConfig(), 30, 20, 34)
	oneD, err := rtree.New(rtree.Config{Dims: 1, MinFill: 0.4, BulkFill: 0.5}, pager.NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	var c stats.Counters
	if _, err := DistanceJoin(tree, oneD, 1, 5, &c); err == nil {
		t.Error("dimension mismatch should be rejected")
	}
	if _, err := DistanceJoin(tree, tree, -1, 5, &c); err == nil {
		t.Error("negative delta should be rejected")
	}
	empty, err := rtree.New(rtree.DefaultConfig(), pager.NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	got, err := DistanceJoin(tree, empty, 1, 5, &c)
	if err != nil || got != nil {
		t.Errorf("join with empty tree = %v, %v", got, err)
	}
}

func TestDistanceJoinPrunes(t *testing.T) {
	tree, _ := buildIndex(t, rtree.DefaultConfig(), 1000, 100, 35)
	st, err := tree.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var c stats.Counters
	if _, err := DistanceJoin(tree, tree, 1.0, 50, &c); err != nil {
		t.Fatal(err)
	}
	// A join at one instant must not read the whole (100-time-unit) tree.
	total := int64(st.LeafNodes + st.InternalNodes)
	if reads := c.Snapshot().Reads(); reads > total/3 {
		t.Errorf("join read %d of %d nodes; temporal pruning ineffective", reads, total)
	}
}

// Property: self-join equals brute force for random deltas and times.
func TestDistanceJoinProperty(t *testing.T) {
	tree, entries := buildIndex(t, rtree.DefaultConfig(), 120, 30, 36)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		delta := r.Float64() * 4
		tt := r.Float64() * 30
		var c stats.Counters
		got, err := DistanceJoin(tree, tree, delta, tt, &c)
		if err != nil {
			return false
		}
		want := bruteJoin(entries, entries, delta, tt, true)
		gk := joinKeys(got)
		if len(gk) != len(want) || len(got) != len(gk) {
			return false
		}
		for k := range want {
			if !gk[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Cross joins running in both directions at once, while writers queue on
// both trees, finish: the join takes the two trees' read locks in one order
// whichever tree it is handed first. Small trees make many short joins, so
// that a join holding one lock while asking for the other is common; with
// the locks taken in argument order, 8 runs in 10 deadlock. The bound is on
// progress, not on the whole run, which takes tens of seconds under -race
// beside other packages: every finished join and insert counts, and the
// test fails only when none finishes for 10 s.
func TestCrossJoinBothWaysUnderWritesDoesNotDeadlock(t *testing.T) {
	a, _ := buildIndex(t, rtree.DefaultConfig(), 20, 40, 41)
	b, _ := buildIndex(t, rtree.DefaultConfig(), 20, 40, 42)
	done := make(chan struct{})
	var progress atomic.Int64
	var wg sync.WaitGroup
	for i, pair := range [][2]*rtree.Tree{{a, b}, {b, a}, {a, b}, {b, a}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var c stats.Counters
			for k := 0; k < 3000; k++ {
				if _, err := DistanceJoin(pair[0], pair[1], 2, float64(k%40), &c); err != nil {
					t.Error(err)
					return
				}
				progress.Add(1)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(i)))
			for k := 0; k < 3000; k++ {
				e := randomEntry(r, rtree.ObjectID(500000+1000*i+k))
				if err := pair[0].Insert(e.ID, e.Seg); err != nil {
					t.Error(err)
					return
				}
				progress.Add(1)
			}
		}()
	}
	go func() { wg.Wait(); close(done) }()
	const stuck = 10 * time.Second
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	last, moved := progress.Load(), time.Now()
	for {
		select {
		case <-done:
			return
		case now := <-tick.C:
			if n := progress.Load(); n != last {
				last, moved = n, now
			} else if now.Sub(moved) >= stuck {
				t.Fatalf("no join or insert finished for %v after %d did: deadlocked", stuck, n)
			}
		}
	}
}
