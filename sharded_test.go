package dynq

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// randomPopulation generates nObj objects with contiguous piecewise-linear
// motion over t ∈ [0, ~duration] in a 100×100 space, ordered by object
// then time.
func randomPopulation(r *rand.Rand, nObj, segsPer int) []MotionUpdate {
	var segs []MotionUpdate
	for id := 0; id < nObj; id++ {
		x, y := r.Float64()*100, r.Float64()*100
		t := r.Float64() * 2
		for s := 0; s < segsPer; s++ {
			dt := 0.5 + r.Float64()*1.5
			nx := x + (r.Float64()*4 - 2)
			ny := y + (r.Float64()*4 - 2)
			segs = append(segs, MotionUpdate{ID: ObjectID(id), Segment: Segment{
				T0: t, T1: t + dt,
				From: []float64{x, y}, To: []float64{nx, ny},
			}})
			x, y, t = nx, ny, t+dt
		}
	}
	return segs
}

// equivPair builds a one-unit and an N-unit database over the same
// population.
func equivPair(t *testing.T, segs []MotionUpdate, shards int, bulk bool) (*DB, *DB) {
	t.Helper()
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	sdb, err := OpenSharded(ShardOptions{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sdb.Close() })
	if bulk {
		if err := db.BulkLoadUpdates(segs); err != nil {
			t.Fatal(err)
		}
		if err := sdb.BulkLoadUpdates(segs); err != nil {
			t.Fatal(err)
		}
	} else {
		for _, u := range segs {
			if err := db.Insert(u.ID, u.Segment); err != nil {
				t.Fatal(err)
			}
			if err := sdb.Insert(u.ID, u.Segment); err != nil {
				t.Fatal(err)
			}
		}
	}
	if db.Len() != sdb.Len() {
		t.Fatalf("population mismatch: %d vs %d segments", db.Len(), sdb.Len())
	}
	return db, sdb
}

func sortResults(rs []Result) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].ID != rs[j].ID {
			return rs[i].ID < rs[j].ID
		}
		if rs[i].Segment.T0 != rs[j].Segment.T0 {
			return rs[i].Segment.T0 < rs[j].Segment.T0
		}
		return rs[i].Appear < rs[j].Appear
	})
}

func sameResults(t *testing.T, label string, single, sharded []Result) {
	t.Helper()
	sortResults(single)
	sortResults(sharded)
	if len(single) != len(sharded) {
		t.Fatalf("%s: %d vs %d results", label, len(single), len(sharded))
	}
	for i := range single {
		a, b := single[i], sharded[i]
		if a.ID != b.ID || a.Segment.T0 != b.Segment.T0 || a.Appear != b.Appear || a.Disappear != b.Disappear {
			t.Fatalf("%s: result %d differs: %+v vs %+v", label, i, a, b)
		}
	}
}

func TestShardedSnapshotEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	segs := randomPopulation(r, 300, 12)
	for _, shards := range []int{1, 3, 7} {
		db, sdb := equivPair(t, segs, shards, true)
		for q := 0; q < 25; q++ {
			x, y := r.Float64()*80, r.Float64()*80
			w := 4 + r.Float64()*16
			t0 := r.Float64() * 15
			view := Rect{Min: []float64{x, y}, Max: []float64{x + w, y + w}}
			want, err := db.Snapshot(view, t0, t0+1)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sdb.Snapshot(view, t0, t0+1)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, "snapshot", want, got)
		}
	}
}

func TestShardedKNNEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	segs := randomPopulation(r, 250, 10)
	db, sdb := equivPair(t, segs, 5, true)
	for q := 0; q < 25; q++ {
		p := []float64{r.Float64() * 100, r.Float64() * 100}
		at := r.Float64() * 12
		k := 1 + r.Intn(15)
		want, err := db.KNN(p, at, k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sdb.KNN(p, at, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != len(got) {
			t.Fatalf("knn: %d vs %d neighbors", len(want), len(got))
		}
		// Both sides deliver ascending distance; normalize exact-tie order.
		byDist := func(ns []Neighbor) {
			sort.Slice(ns, func(i, j int) bool {
				if ns[i].Dist != ns[j].Dist {
					return ns[i].Dist < ns[j].Dist
				}
				return ns[i].ID < ns[j].ID
			})
		}
		byDist(want)
		byDist(got)
		for i := range want {
			if want[i].ID != got[i].ID || want[i].Dist != got[i].Dist {
				t.Fatalf("knn: rank %d differs: %v/%g vs %v/%g",
					i, want[i].ID, want[i].Dist, got[i].ID, got[i].Dist)
			}
		}
	}
}

// observer returns a moving-window trajectory and its frame decomposition.
func observer(frames int) (wps []Waypoint, views []Rect, times [][2]float64) {
	const w, step, dt = 18.0, 1.5, 0.4
	for f := 0; f <= frames; f++ {
		x := 5 + step*float64(f)
		view := Rect{Min: []float64{x, 20}, Max: []float64{x + w, 20 + w}}
		tf := float64(f) * dt
		if f < frames {
			views = append(views, view)
			times = append(times, [2]float64{tf, tf + dt})
		}
	}
	wps = []Waypoint{
		{T: 0, View: Rect{Min: []float64{5, 20}, Max: []float64{5 + w, 20 + w}}},
		{T: float64(frames) * dt, View: Rect{Min: []float64{5 + step*float64(frames), 20}, Max: []float64{5 + step*float64(frames) + w, 20 + w}}},
	}
	return wps, views, times
}

func TestShardedPredictiveEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	segs := randomPopulation(r, 300, 12)
	db, sdb := equivPair(t, segs, 4, true)
	wps, _, times := observer(20)

	single, err := db.Predictive(wps, PredictiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	sharded, err := sdb.Predictive(wps, PredictiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()

	total := 0
	for f, tw := range times {
		want, err := single.Fetch(tw[0], tw[1])
		if err != nil {
			t.Fatal(err)
		}
		got := collectShardedPDQ(t, sharded, tw[0], tw[1])
		sameResults(t, "pdq frame", want, got)
		total += len(want)
		_ = f
	}
	if total == 0 {
		t.Fatal("pdq equivalence vacuous: no results delivered")
	}
}

// collectShardedPDQ fetches one window, checking the appearance ordering
// contract: results come in order of the time they enter the window.
func collectShardedPDQ(t *testing.T, s PredictiveCursor, t0, t1 float64) []Result {
	t.Helper()
	rs, err := s.Fetch(t0, t1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rs); i++ {
		if last, appear := max(rs[i-1].Appear, t0), max(rs[i].Appear, t0); appear < last {
			t.Fatalf("pdq answer out of appearance order: %g after %g", rs[i].Appear, rs[i-1].Appear)
		}
	}
	return rs
}

func TestShardedNonPredictiveEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	segs := randomPopulation(r, 300, 12)
	db, sdb := equivPair(t, segs, 4, true)
	_, views, times := observer(20)

	single := db.NonPredictive(NonPredictiveOptions{})
	sharded := sdb.NonPredictive(NonPredictiveOptions{})
	total := 0
	for f := range views {
		want, err := single.Snapshot(views[f], times[f][0], times[f][1])
		if err != nil {
			t.Fatal(err)
		}
		got, err := sharded.Snapshot(views[f], times[f][0], times[f][1])
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, "npdq frame", want, got)
		total += len(want)
	}
	if total == 0 {
		t.Fatal("npdq equivalence vacuous: no results delivered")
	}

	// After a reset both sides deliver the full frame again.
	single.Reset()
	sharded.Reset()
	want, err := single.Snapshot(views[0], times[0][0], times[0][1])
	if err != nil {
		t.Fatal(err)
	}
	got, err := sharded.Snapshot(views[0], times[0][0], times[0][1])
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "npdq reset", want, got)
}

func TestShardedJoinAndCountEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	segs := randomPopulation(r, 120, 8)
	db, sdb := equivPair(t, segs, 3, false) // exercise the Insert path too

	want, err := db.Within(2.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sdb.Within(2.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	sortPairsAPI := func(ps []Pair) {
		sort.Slice(ps, func(i, j int) bool {
			if ps[i].A != ps[j].A {
				return ps[i].A < ps[j].A
			}
			if ps[i].B != ps[j].B {
				return ps[i].B < ps[j].B
			}
			return ps[i].SegmentA.T0 < ps[j].SegmentA.T0
		})
	}
	sortPairsAPI(want)
	sortPairsAPI(got)
	if len(want) != len(got) {
		t.Fatalf("within: %d vs %d pairs", len(want), len(got))
	}
	for i := range want {
		if want[i].A != got[i].A || want[i].B != got[i].B || want[i].Dist != got[i].Dist {
			t.Fatalf("within: pair %d differs: %+v vs %+v", i, want[i], got[i])
		}
	}
}

func TestShardedStatsAndCost(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	segs := randomPopulation(r, 200, 10)
	_, sdb := equivPair(t, segs, 4, true)

	st, err := sdb.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Segments != sdb.Len() {
		t.Fatalf("aggregate stats count %d segments, Len says %d", st.Segments, sdb.Len())
	}
	per, err := sdb.units.Stats()
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, s := range per {
		sum += s.Segments
	}
	if sum != st.Segments {
		t.Fatalf("per-shard segments sum to %d, aggregate says %d", sum, st.Segments)
	}
	if err := sdb.Validate(); err != nil {
		t.Fatal(err)
	}

	sdb.ResetCost()
	if _, err := sdb.Snapshot(Rect{Min: []float64{0, 0}, Max: []float64{100, 100}}, 0, 5); err != nil {
		t.Fatal(err)
	}
	total := sdb.Cost()
	if total.DiskReads == 0 || total.Results == 0 {
		t.Fatalf("aggregated cost not counting: %+v", total)
	}
	var perShard int64
	for i := 0; i < sdb.Shards(); i++ {
		perShard += costReport(sdb.units.Shard(i).Counters.Snapshot()).DiskReads
	}
	if perShard != total.DiskReads {
		t.Fatalf("per-shard reads sum to %d, aggregate says %d", perShard, total.DiskReads)
	}
}

// TestShardedConcurrentUse drives parallel queries and inserts through the
// worker pool; run under -race this checks the engine's synchronization.
func TestShardedConcurrentUse(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	segs := randomPopulation(r, 150, 8)
	_, sdb := equivPair(t, segs, 4, true)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				switch g % 3 {
				case 0:
					x := float64(i * 3 % 70)
					if _, err := sdb.Snapshot(Rect{Min: []float64{x, 10}, Max: []float64{x + 20, 40}}, 1, 3); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if _, err := sdb.KNN([]float64{50, 50}, 2, 5); err != nil {
						t.Error(err)
						return
					}
				case 2:
					id := ObjectID(10_000 + g*1000 + i)
					err := sdb.Insert(id, Segment{T0: 1, T1: 2, From: []float64{1, 1}, To: []float64{2, 2}})
					if err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestOptionsValidation(t *testing.T) {
	if _, err := Open(Options{Dims: -2}); err == nil {
		t.Fatal("negative Dims accepted")
	}
	if _, err := Open(Options{BufferPages: -1}); err == nil {
		t.Fatal("negative BufferPages accepted")
	}
	if _, err := OpenSharded(ShardOptions{Shards: 0}); err == nil {
		t.Fatal("zero Shards accepted")
	}
	if _, err := OpenSharded(ShardOptions{Shards: 2, Options: Options{Dims: -1}}); err == nil {
		t.Fatal("sharded open accepted negative Dims")
	}
}
