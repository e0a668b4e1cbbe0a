package dynq

import (
	"context"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"
)

func newTestDB(t *testing.T, opts Options) *DB {
	t.Helper()
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func populate(t *testing.T, db *DB, n int, seed int64) map[ObjectID][]Segment {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	segs := map[ObjectID][]Segment{}
	for i := 0; i < n; i++ {
		id := ObjectID(i)
		tt := 0.0
		x, y := r.Float64()*100, r.Float64()*100
		for tt < 50 {
			dt := 0.5 + r.Float64()
			nx, ny := x+r.Float64()*2-1, y+r.Float64()*2-1
			seg := Segment{T0: tt, T1: tt + dt, From: []float64{x, y}, To: []float64{nx, ny}}
			segs[id] = append(segs[id], seg)
			if err := db.Insert(id, seg); err != nil {
				t.Fatal(err)
			}
			x, y, tt = nx, ny, tt+dt
		}
	}
	return segs
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(Options{Dims: 99}); err == nil {
		t.Error("bad dims should be rejected")
	}
}

func TestInsertSnapshotRoundTrip(t *testing.T) {
	db := newTestDB(t, Options{})
	populate(t, db, 50, 1)
	if db.Len() == 0 || db.Dims() != 2 {
		t.Fatalf("len=%d dims=%d", db.Len(), db.Dims())
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
	// The random walk can drift outside [0,100]; query a superset box.
	res, err := db.Snapshot(Rect{Min: []float64{-100, -100}, Max: []float64{200, 200}}, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != db.Len() {
		t.Errorf("whole-world snapshot found %d of %d", len(res), db.Len())
	}
	cost := db.Cost()
	if cost.DiskReads == 0 || cost.Results == 0 {
		t.Errorf("cost accounting empty: %+v", cost)
	}
	db.ResetCost()
	if db.Cost() != (CostReport{}) {
		t.Error("ResetCost should zero the report")
	}
	// Bad geometry rejected.
	if err := db.Insert(1, Segment{T0: 1, T1: 0, From: []float64{0, 0}, To: []float64{1, 1}}); err == nil {
		t.Error("inverted times should be rejected")
	}
	if err := db.Insert(1, Segment{T0: 0, T1: 1, From: []float64{0}, To: []float64{1, 1}}); err == nil {
		t.Error("wrong dims should be rejected")
	}
	if _, err := db.Snapshot(Rect{Min: []float64{0}, Max: []float64{1}}, 0, 1); err == nil {
		t.Error("wrong rect dims should be rejected")
	}
}

func TestDelete(t *testing.T) {
	db := newTestDB(t, Options{})
	seg := Segment{T0: 1, T1: 2, From: []float64{5, 5}, To: []float64{6, 6}}
	if err := db.Insert(9, seg); err != nil {
		t.Fatal(err)
	}
	del := []MotionUpdate{{ID: 9, Segment: Segment{T0: 1}, Delete: true}}
	if err := db.ApplyUpdates(context.Background(), del, WriteOptions{}); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if err := db.ApplyUpdates(context.Background(), del, WriteOptions{}); err != ErrNotFound {
		t.Errorf("double delete = %v, want ErrNotFound", err)
	}
	if db.Len() != 0 {
		t.Errorf("len = %d after delete", db.Len())
	}
}

func TestBulkLoadAndStats(t *testing.T) {
	db := newTestDB(t, Options{})
	r := rand.New(rand.NewSource(2))
	var segs []MotionUpdate
	for i := 0; i < 200; i++ {
		for k := 0; k < 20; k++ {
			t0 := float64(k)
			x, y := r.Float64()*100, r.Float64()*100
			segs = append(segs, MotionUpdate{ID: ObjectID(i), Segment: Segment{
				T0: t0, T1: t0 + 1,
				From: []float64{x, y}, To: []float64{x + 1, y + 1},
			}})
		}
	}
	if err := db.BulkLoadUpdates(segs); err != nil {
		t.Fatal(err)
	}
	if db.Len() != 4000 {
		t.Fatalf("len = %d", db.Len())
	}
	st, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.LeafFanout != 127 || st.IntFanout != 145 {
		t.Errorf("fanouts = %d/%d, want 127/145", st.LeafFanout, st.IntFanout)
	}
	if st.Segments != 4000 || st.LeafNodes == 0 {
		t.Errorf("stats = %+v", st)
	}
	// Bulk load on a non-empty database is refused.
	if err := db.BulkLoadUpdates(segs); err == nil {
		t.Error("bulk load over existing data should be refused")
	}
}

func TestPredictiveSessionAgainstSnapshots(t *testing.T) {
	db := newTestDB(t, Options{})
	populate(t, db, 100, 3)
	waypoints := []Waypoint{
		{T: 5, View: Rect{Min: []float64{10, 10}, Max: []float64{30, 30}}},
		{T: 25, View: Rect{Min: []float64{50, 50}, Max: []float64{70, 70}}},
	}
	sess, err := db.Predictive(waypoints, PredictiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	view := NewViewCache()
	// Walk the trajectory frame by frame; at each frame the cache must
	// hold exactly the objects a fresh snapshot at that frame would find
	// (modulo exact-boundary grazing).
	for f := 0; f <= 100; f++ {
		t0 := 5 + float64(f)*0.2
		t1 := t0 + 0.2
		if t1 > 25 {
			break
		}
		res, err := sess.Fetch(t0, t1)
		if err != nil {
			t.Fatal(err)
		}
		view.Apply(res)
		view.Advance(t0)
		visible := make(map[ObjectID]bool)
		for _, r := range view.Visible() {
			visible[r.ID] = true
		}
		// Interpolated window at time t0.
		frac := (t0 - 5) / 20
		lo := 10 + 40*frac
		snap, err := db.Snapshot(Rect{
			Min: []float64{lo, lo},
			Max: []float64{lo + 20, lo + 20},
		}, t0, t0)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range snap {
			if !visible[s.ID] {
				// Tolerate boundary-degenerate matches (zero-length
				// episodes at the frame edge).
				if s.Disappear-s.Appear < 1e-9 {
					continue
				}
				t.Fatalf("frame t=%g: object %d visible per snapshot but absent from PDQ cache", t0, s.ID)
			}
		}
	}
}

func TestNonPredictiveSessionIncrementalUnion(t *testing.T) {
	db := newTestDB(t, Options{DualTimeAxes: true})
	populate(t, db, 100, 4)
	sess := db.NonPredictive(NonPredictiveOptions{})
	seen := map[ObjectID]bool{}
	var lastCount int
	for f := 0; f < 30; f++ {
		x := 10 + float64(f)*0.5
		t0 := 5 + float64(f)*0.3
		res, err := sess.Snapshot(Rect{Min: []float64{x, 20}, Max: []float64{x + 15, 35}}, t0, t0+0.3)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			seen[r.ID] = true
		}
		lastCount = len(res)
	}
	if len(seen) == 0 {
		t.Fatal("session never returned anything")
	}
	_ = lastCount
	// Reset, identical snapshot returns full answer.
	sess.Reset()
	full, err := sess.Snapshot(Rect{Min: []float64{10, 20}, Max: []float64{25, 35}}, 5, 5.3)
	if err != nil {
		t.Fatal(err)
	}
	again, err := sess.Snapshot(Rect{Min: []float64{10, 20}, Max: []float64{25, 35}}, 5, 5.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 0 && len(full) > 0 {
		t.Errorf("repeated identical snapshot returned %d new results", len(again))
	}
}

func TestKNNSortedByDistance(t *testing.T) {
	db := newTestDB(t, Options{})
	populate(t, db, 100, 5)
	// kNN sanity: results sorted by distance, correct count.
	nbs, err := db.KNN([]float64{50, 50}, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(nbs) != 7 {
		t.Fatalf("kNN returned %d, want 7", len(nbs))
	}
	if !sort.SliceIsSorted(nbs, func(i, j int) bool { return nbs[i].Dist < nbs[j].Dist }) {
		t.Error("kNN results not sorted by distance")
	}
}

func TestViewCache(t *testing.T) {
	v := NewViewCache()
	v.Apply([]Result{
		{ID: 1, Disappear: 10},
		{ID: 2, Disappear: 5},
	})
	if v.Len() != 2 {
		t.Fatalf("len = %d", v.Len())
	}
	gone := v.Advance(7)
	if len(gone) != 1 || gone[0].ID != 2 {
		t.Errorf("evicted = %v", gone)
	}
	if vs := v.Visible(); len(vs) != 1 || vs[0].ID != 1 {
		t.Errorf("visible = %v, want object 1 alone", vs)
	}
}

func TestFilePersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.dynq")
	db, err := Open(Options{Path: path, DualTimeAxes: true})
	if err != nil {
		t.Fatal(err)
	}
	segs := populate(t, db, 30, 6)
	wantLen := db.Len()
	res, err := db.Snapshot(Rect{Min: []float64{0, 0}, Max: []float64{100, 100}}, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, _, err := OpenFileRecoverWith(path, RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != wantLen {
		t.Fatalf("reopened len = %d, want %d", re.Len(), wantLen)
	}
	if re.Dims() != 2 {
		t.Errorf("reopened dims = %d", re.Dims())
	}
	res2, err := re.Snapshot(Rect{Min: []float64{0, 0}, Max: []float64{100, 100}}, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2) != len(res) {
		t.Errorf("reopened snapshot found %d, want %d", len(res2), len(res))
	}
	if err := re.Validate(); err != nil {
		t.Fatal(err)
	}
	// Coordinates survive at float32 precision.
	first := segs[0][0]
	found := false
	for _, r := range res2 {
		if r.ID == 0 && math.Abs(r.Segment.T0-float64(float32(first.T0))) < 1e-12 {
			found = true
		}
	}
	if !found {
		t.Error("object 0's first segment missing after reopen")
	}
	// A missing file fails cleanly.
	if _, _, err := OpenFileRecoverWith(filepath.Join(t.TempDir(), "missing"), RecoverOptions{}); err == nil {
		t.Error("opening a missing file should fail")
	}
}

func TestBufferedDBCounts(t *testing.T) {
	db := newTestDB(t, Options{BufferPages: 1024})
	populate(t, db, 100, 7)
	db.ResetCost()
	view := Rect{Min: []float64{20, 20}, Max: []float64{40, 40}}
	if _, err := db.Snapshot(view, 10, 12); err != nil {
		t.Fatal(err)
	}
	first := db.Cost()
	if _, err := db.Snapshot(view, 10, 12); err != nil {
		t.Fatal(err)
	}
	second := db.Cost()
	// Node-level accounting (the paper's metric) is buffer-independent:
	// both queries charge the same reads.
	if second.DiskReads != 2*first.DiskReads {
		t.Errorf("reads %d then %d; node accounting should be equal per query",
			first.DiskReads, second.DiskReads-first.DiskReads)
	}
}

func TestPredictiveSessionNext(t *testing.T) {
	db := newTestDB(t, Options{})
	for i := 0; i < 5; i++ {
		err := db.Insert(ObjectID(i), Segment{
			T0: 0, T1: 10,
			From: []float64{float64(i * 2), 5}, To: []float64{float64(i * 2), 5},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	sess, err := db.Predictive([]Waypoint{
		{T: 0, View: Rect{Min: []float64{0, 0}, Max: []float64{10, 10}}},
		{T: 10, View: Rect{Min: []float64{0, 0}, Max: []float64{10, 10}}},
	}, PredictiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	seen := 0
	for {
		r, err := sess.Next(0, 10)
		if err != nil {
			t.Fatal(err)
		}
		if r == nil {
			break
		}
		if r.Appear > r.Disappear {
			t.Errorf("inverted episode: %+v", r)
		}
		seen++
	}
	if seen != 5 {
		t.Errorf("Next delivered %d results, want 5", seen)
	}
	// Exhausted session keeps returning nil without error.
	if r, err := sess.Next(0, 10); err != nil || r != nil {
		t.Errorf("drained session Next = %v, %v", r, err)
	}
}

// The whole stack works in 3-d (the paper's d "usually 2 or 3"): fanouts
// shrink with the extra dimension, queries and sessions behave the same.
func TestThreeDimensionalEndToEnd(t *testing.T) {
	db := newTestDB(t, Options{Dims: 3})
	if db.Dims() != 3 {
		t.Fatalf("dims = %d", db.Dims())
	}
	// A column of drones climbing at different rates.
	for i := 0; i < 20; i++ {
		err := db.Insert(ObjectID(i), Segment{
			T0: 0, T1: 20,
			From: []float64{50, 50, float64(i)},
			To:   []float64{50, 50, float64(i) + 10},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	st, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// 3-d leaf entry = 8 + 8*4 = 40 bytes → (4096-16)/40 = 102.
	if st.LeafFanout != 102 {
		t.Errorf("3-d leaf fanout = %d, want 102", st.LeafFanout)
	}
	// Altitude-sliced snapshot: who is between z=5 and z=8 at t=0?
	res, err := db.Snapshot(Rect{
		Min: []float64{0, 0, 5},
		Max: []float64{100, 100, 8},
	}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 { // initial z ∈ {5,6,7,8}
		t.Errorf("altitude slice found %d, want 4: %v", len(res), res)
	}
	// A 3-d predictive session: the view frustum climbs with the drones.
	sess, err := db.Predictive([]Waypoint{
		{T: 0, View: Rect{Min: []float64{40, 40, 0}, Max: []float64{60, 60, 5}}},
		{T: 20, View: Rect{Min: []float64{40, 40, 10}, Max: []float64{60, 60, 15}}},
	}, PredictiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	got, err := sess.Fetch(0, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Error("3-d predictive session returned nothing")
	}
	// 3-d kNN.
	nbs, err := db.KNN([]float64{50, 50, 0}, 10, 3)
	if err != nil || len(nbs) != 3 {
		t.Fatalf("3-d knn = %v, %v", nbs, err)
	}
}
