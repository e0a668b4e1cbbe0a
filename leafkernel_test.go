package dynq

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"dynq/internal/motion"
	"dynq/internal/workload"
)

// ownershipDB is a small population plus object 9999, which stands still
// at (50, 50) for the whole run so that a window sweeping right and back
// again meets its one segment in two separate episodes.
func ownershipDB(t *testing.T, fl flavour) Database {
	t.Helper()
	db, err := fl.create(filepath.Join(t.TempDir(), "own.dynq"), false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	r := rand.New(rand.NewSource(7))
	var ups []MotionUpdate
	for id := 0; id < 120; id++ {
		x, y := r.Float64()*100, 40+r.Float64()*20
		for tt := 0.0; tt < 80; tt += 8 {
			nx, ny := x+r.Float64()*4-2, y+r.Float64()*4-2
			ups = append(ups, MotionUpdate{ID: ObjectID(id), Segment: Segment{T0: tt, T1: tt + 8, From: []float64{x, y}, To: []float64{nx, ny}}})
			x, y = nx, ny
		}
	}
	ups = append(ups, MotionUpdate{ID: 9999, Segment: Segment{T0: 0, T1: 80, From: []float64{50, 50}, To: []float64{50, 50}}})
	if err := db.ApplyUpdates(context.Background(), ups, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	return db
}

func copyResults(rs []Result) []Result {
	out := make([]Result, len(rs))
	for i, r := range rs {
		out[i] = r
		out[i].Segment.From = append([]float64(nil), r.Segment.From...)
		out[i].Segment.To = append([]float64(nil), r.Segment.To...)
	}
	return out
}

// scribble overwrites every coordinate of every result and appends to both
// points, one result at a time, checking after each that the results not
// yet touched still read as want says: no two results share memory, and an
// append to one point reaches neither its sibling nor a neighbour.
func scribble(t *testing.T, what string, rs, want []Result) {
	t.Helper()
	for i := range rs {
		s := &rs[i].Segment
		for _, p := range []*[]float64{&s.From, &s.To} {
			for k := range *p {
				(*p)[k] = -12345
			}
			*p = append(*p, -1, -2, -3)
		}
		if !reflect.DeepEqual(rs[i+1:], want[i+1:]) {
			t.Fatalf("%s: writing to result %d of %d changed a later one", what, i, len(rs))
		}
		if s.To[0] != -12345 || s.From[len(s.From)-1] != -3 {
			t.Fatalf("%s: result %d's points overlap each other", what, i)
		}
	}
}

// What a query returns is the caller's: writing to it and appending to it
// changes no other result of the frame, no later frame and not the index —
// for snapshots, non-predictive frames and a predictive session that
// delivers one segment in two episodes, on one unit and on four.
func TestResultsOwnTheirMemory(t *testing.T) {
	world := Rect{Min: []float64{-50, -50}, Max: []float64{150, 150}}
	path := []Waypoint{
		{T: 0, View: Rect{Min: []float64{0, 30}, Max: []float64{10, 70}}},
		{T: 40, View: Rect{Min: []float64{90, 30}, Max: []float64{100, 70}}},
		{T: 80, View: Rect{Min: []float64{0, 30}, Max: []float64{10, 70}}},
	}
	for _, fl := range flavours() {
		t.Run(fl.name, func(t *testing.T) {
			db := ownershipDB(t, fl)

			first, err := db.Snapshot(world, 0, 80)
			if err != nil || len(first) != db.Len() {
				t.Fatalf("snapshot: %d of %d results, err %v", len(first), db.Len(), err)
			}
			want := copyResults(first)
			scribble(t, "snapshot", first, want)
			again, err := db.Snapshot(world, 0, 80)
			if err != nil || !reflect.DeepEqual(again, want) {
				t.Fatalf("snapshot after writing to the previous one's results differs (err %v)", err)
			}

			// Twin sessions over the same frames: one's results are written
			// to after every frame, the other's never.
			na, nb := db.NonPredictive(NonPredictiveOptions{}), db.NonPredictive(NonPredictiveOptions{})
			delivered := 0
			for f := 0; f < 30; f++ {
				x := float64(f) * 3
				view := Rect{Min: []float64{x, 30}, Max: []float64{x + 12, 70}}
				ra, err := na.Snapshot(view, float64(f), float64(f)+1)
				if err != nil {
					t.Fatal(err)
				}
				rb, err := nb.Snapshot(view, float64(f), float64(f)+1)
				if err != nil || !reflect.DeepEqual(ra, rb) {
					t.Fatalf("npdq frame %d differs from its untouched twin (err %v)", f, err)
				}
				scribble(t, fmt.Sprintf("npdq frame %d", f), ra, copyResults(rb))
				delivered += len(rb)
			}
			if delivered < 30 {
				t.Fatalf("npdq delivered %d results over 30 frames: too few to mean anything", delivered)
			}

			a, err := db.Predictive(path, PredictiveOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			b, err := db.Predictive(path, PredictiveOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			var episodes []Result // of object 9999, from the untouched twin
			for f := 0; f < 16; f++ {
				ra, err := a.Fetch(float64(f)*5, float64(f)*5+5)
				if err != nil {
					t.Fatal(err)
				}
				rb, err := b.Fetch(float64(f)*5, float64(f)*5+5)
				if err != nil || !reflect.DeepEqual(ra, rb) {
					t.Fatalf("pdq frame %d differs from its untouched twin (err %v)", f, err)
				}
				for _, r := range rb {
					if r.ID == 9999 {
						episodes = append(episodes, r)
					}
				}
				scribble(t, fmt.Sprintf("pdq frame %d", f), ra, copyResults(rb))
			}
			if len(episodes) != 2 || episodes[0].Appear >= episodes[1].Appear ||
				!reflect.DeepEqual(episodes[0].Segment, episodes[1].Segment) {
				t.Fatalf("object 9999 should be delivered in two episodes of one segment, got %+v", episodes)
			}
			if &episodes[0].Segment.From[0] == &episodes[1].Segment.From[0] {
				t.Fatal("the two episodes of object 9999 share their coordinates")
			}

			final, err := db.Snapshot(world, 0, 80)
			if err != nil || !reflect.DeepEqual(final, want) {
				t.Fatalf("the index changed under writes to query results (err %v)", err)
			}
		})
	}
}

// Non-finite input stops at the boundary: a segment with a NaN or infinite
// time or coordinate is refused with ErrNonFinite before anything of its
// batch is logged or applied, and a query containing NaN is refused too.
// (Insert(id, Segment{T0: NaN, …}) used to succeed — NaN fails no ordering
// check — and the segment was returned by every later snapshot.)
func TestNonFiniteInputRefused(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	good := Segment{T0: 1, T1: 2, From: []float64{10, 10}, To: []float64{11, 11}}
	bad := map[string]Segment{
		"NaN start time":  {T0: nan, T1: 2, From: []float64{10, 10}, To: []float64{11, 11}},
		"NaN end time":    {T0: 1, T1: nan, From: []float64{10, 10}, To: []float64{11, 11}},
		"Inf end time":    {T0: 1, T1: inf, From: []float64{10, 10}, To: []float64{11, 11}},
		"NaN coordinate":  {T0: 1, T1: 2, From: []float64{nan, 10}, To: []float64{11, 11}},
		"-Inf coordinate": {T0: 1, T1: 2, From: []float64{10, 10}, To: []float64{11, -inf}},
		"the issue's":     {T0: nan, From: []float64{nan, 50}, To: []float64{3, inf}},
		"beyond float32":  {T0: 1, T1: 2, From: []float64{1e39, 10}, To: []float64{11, 11}},
	}
	for _, fl := range flavours() {
		t.Run(fl.name, func(t *testing.T) {
			db, err := fl.create(filepath.Join(t.TempDir(), "nf.dynq"), true)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if err := db.Insert(1, good); err != nil {
				t.Fatal(err)
			}
			wal, _ := db.WALTelemetry(nil)
			for name, seg := range bad {
				if err := db.Insert(2, seg); !errors.Is(err, ErrNonFinite) {
					t.Errorf("Insert with %s: %v, want ErrNonFinite", name, err)
				}
				// Mid-batch: the good updates around it must not land either.
				batch := []MotionUpdate{{ID: 3, Segment: good}, {ID: 4, Segment: seg}, {ID: 5, Segment: good}}
				if err := db.ApplyUpdates(context.Background(), batch, WriteOptions{}); !errors.Is(err, ErrNonFinite) {
					t.Errorf("ApplyUpdates with %s mid-batch: %v, want ErrNonFinite", name, err)
				}
				if err := db.BulkLoadUpdates(batch); !errors.Is(err, ErrNonFinite) {
					t.Errorf("BulkLoadUpdates with %s: %v, want ErrNonFinite", name, err)
				}
			}
			if after, _ := db.WALTelemetry(nil); after.Appends != wal.Appends {
				t.Errorf("a refused batch reached the log: %d appends, were %d", after.Appends, wal.Appends)
			}
			rs, err := db.Snapshot(everything, -inf, inf) // unbounded is legal
			if err != nil || len(rs) != 1 || db.Len() != 1 {
				t.Fatalf("after the refusals: %d results, %d stored, err %v; want the one good segment", len(rs), db.Len(), err)
			}

			nanView := Rect{Min: []float64{0, nan}, Max: []float64{100, 100}}
			view := Rect{Min: []float64{0, 0}, Max: []float64{100, 100}}
			queries := map[string]func() error{
				"snapshot view": func() error { _, err := db.Snapshot(nanView, 0, 1); return err },
				"snapshot time": func() error { _, err := db.Snapshot(view, nan, 1); return err },
				"knn point":     func() error { _, err := db.KNN([]float64{nan, 0}, 1, 3); return err },
				"knn time":      func() error { _, err := db.KNN([]float64{0, 0}, nan, 3); return err },
				"npdq view":     func() error { _, err := db.NonPredictive(NonPredictiveOptions{}).Snapshot(nanView, 0, 1); return err },
				"npdq time":     func() error { _, err := db.NonPredictive(NonPredictiveOptions{}).Snapshot(view, 0, nan); return err },
				"waypoint view": func() error {
					_, err := db.Predictive([]Waypoint{{T: 0, View: view}, {T: 1, View: nanView}}, PredictiveOptions{})
					return err
				},
				"waypoint time": func() error {
					_, err := db.Predictive([]Waypoint{{T: 0, View: view}, {T: nan, View: view}}, PredictiveOptions{})
					return err
				},
			}
			for name, q := range queries {
				if err := q(); !errors.Is(err, ErrNonFinite) {
					t.Errorf("%s with NaN: %v, want ErrNonFinite", name, err)
				}
			}
		})
	}
}

// paperUpdates is the paper's population (Section 5: objects re-reporting
// about once per time unit in a 100×100 world over 100 time units), cut to
// exactly n segments.
func paperUpdates(tb testing.TB, n int, seed int64) []MotionUpdate {
	tb.Helper()
	sim := motion.PaperConfig()
	sim.Objects, sim.Seed = n/90+2, seed
	raw, err := motion.GenerateSegments(sim)
	if err != nil || len(raw) < n {
		tb.Fatalf("population: %d of %d segments, err %v", len(raw), n, err)
	}
	ups := make([]MotionUpdate, n)
	for i, r := range raw[:n] {
		ups[i] = MotionUpdate{ID: ObjectID(r.ObjID), Segment: Segment{T0: r.Seg.T.Lo, T1: r.Seg.T.Hi, From: r.Seg.Start, To: r.Seg.End}}
	}
	return ups
}

// growthSteps is how many chunks a result slab takes to hold n entries:
// the first holds 8, each next one twice the last.
func growthSteps(n int) float64 {
	steps := 0.0
	for held, size := 0, 8; held < n; held, size = held+size, 2*size {
		steps++
	}
	return steps
}

// A result's coordinates are copied once, into a slab: what a query
// allocates does not grow with what it returns beyond the slab's and the
// answer slice's growth steps. (Each result used to cost three allocations
// between the page and the caller.)
func TestQueryAllocationBudgets(t *testing.T) {
	db := newTestDB(t, Options{DualTimeAxes: true})
	if err := db.BulkLoadUpdates(paperUpdates(t, 20000, 3)); err != nil {
		t.Fatal(err)
	}
	for _, side := range []float64{8, 40} {
		view := Rect{Min: []float64{30, 30}, Max: []float64{30 + side, 30 + side}}
		rs, err := db.Snapshot(view, 50, 50.5)
		if err != nil || len(rs) == 0 {
			t.Fatalf("snapshot of side %g: %d results, err %v", side, len(rs), err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := db.Snapshot(view, 50, 50.5); err != nil {
				t.Fatal(err)
			}
		})
		// The slab's steps, and as many again for the match slice beside it.
		if budget := 12 + 2*growthSteps(len(rs)); allocs > budget {
			t.Errorf("Snapshot: %.0f allocs for %d results, budget %.0f", allocs, len(rs), budget)
		}
	}

	s := db.NonPredictive(NonPredictiveOptions{})
	frame := func(f int) ([]Result, error) {
		x := 20 + float64(f)*0.08
		return s.Snapshot(Rect{Min: []float64{x, 40}, Max: []float64{x + 8, 48}}, 10+float64(f)*0.1, 10.1+float64(f)*0.1)
	}
	if _, err := frame(0); err != nil {
		t.Fatal(err)
	}
	f, delivered, most := 1, 0, 0
	allocs := testing.AllocsPerRun(300, func() {
		rs, err := frame(f)
		if err != nil {
			t.Fatal(err)
		}
		delivered, most, f = delivered+len(rs), max(most, len(rs)), f+1
	})
	if delivered == 0 {
		t.Fatal("the non-predictive frames delivered nothing")
	}
	// Five are the frame's own: the view box, and the fan-out's task list,
	// two closures and answer list, which a one-unit engine pays too.
	if budget := 5 + 2*growthSteps(most); allocs > budget {
		t.Errorf("non-predictive frame: %.1f allocs for at most %d results, budget %.0f", allocs, most, budget)
	}

	// A predictive frame appends its results to one answer slice and hands
	// over points its session copied off the page in chunks: a result costs
	// no allocation of its own. (Each used to cost one for itself and one
	// for its points, and the frame a second answer slice.)
	p, err := db.Predictive([]Waypoint{
		{T: 10, View: Rect{Min: []float64{10, 30}, Max: []float64{50, 70}}},
		{T: 50, View: Rect{Min: []float64{50, 30}, Max: []float64{90, 70}}},
	}, PredictiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Fetch(10, 10.1); err != nil {
		t.Fatal(err)
	}
	f, delivered, most = 1, 0, 0
	allocs = testing.AllocsPerRun(300, func() {
		rs, err := p.Fetch(10+float64(f)*0.1, 10.1+float64(f)*0.1)
		if err != nil {
			t.Fatal(err)
		}
		delivered, most, f = delivered+len(rs), max(most, len(rs)), f+1
	})
	if delivered < 300 {
		t.Fatalf("the predictive frames delivered %d results: too few to mean anything", delivered)
	}
	// The answer slice's doublings in the largest frame; the chunks of
	// points and the queue's growth, amortised over the session, fit in
	// the smaller frames' slack.
	if budget := 1 + math.Ceil(math.Log2(float64(most))); allocs > budget {
		t.Errorf("predictive frame: %.2f allocs for %d results, at most %d a frame, budget %.0f", allocs, delivered, most, budget)
	}
}

// benchDB is the repo benchmark's in-memory shape: 100 000 segments
// bulk-loaded with dual time axes.
func benchDB(b *testing.B) *DB {
	db, err := Open(Options{DualTimeAxes: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	if err := db.BulkLoadUpdates(paperUpdates(b, 100000, 1)); err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkSnapshot times a snapshot at the public API, conversion to
// Result included, on benchDB: windows of side 8, 14 and 20 during one 0.1
// frame.
func BenchmarkSnapshot(b *testing.B) {
	db := benchDB(b)
	r := rand.New(rand.NewSource(2))
	results := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		side := []float64{8, 14, 20}[i%3]
		x, y, t0 := r.Float64()*(100-side), r.Float64()*(100-side), r.Float64()*99
		rs, err := db.Snapshot(Rect{Min: []float64{x, y}, Max: []float64{x + side, y + side}}, t0, t0+0.1)
		if err != nil {
			b.Fatal(err)
		}
		results += len(rs)
	}
	b.ReportMetric(float64(results)/float64(b.N), "results/op")
}

// BenchmarkSnapshotFlight times a naive fly-through at the public API on
// benchDB, as the repo benchmark's naive frames run one: the 51 frames of
// one of the paper's queries, each a fresh snapshot, conversion to Result
// included. It cycles through overlaps 0 to 0.9999 and window sides 8, 14
// and 20 as BenchmarkPredictiveFetch does, so consecutive frames meet the
// same leaves warm, where BenchmarkSnapshot's random windows meet them cold.
func BenchmarkSnapshotFlight(b *testing.B) {
	db := benchDB(b)
	r := rand.New(rand.NewSource(3))
	overlaps, sides := []float64{0, 0.5, 0.9, 0.9999}, []float64{8, 14, 20}
	var queries []*workload.Query
	for i := 0; i < 12; i++ {
		q, err := workload.Generate(workload.PaperQuery(overlaps[i%4], sides[i/4%3]), r)
		if err != nil {
			b.Fatal(err)
		}
		queries = append(queries, q)
	}
	results := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		for f, w := range q.Windows {
			tw := q.Times[f]
			rs, err := db.Snapshot(Rect{Min: []float64{w[0].Lo, w[1].Lo}, Max: []float64{w[0].Hi, w[1].Hi}}, tw.Lo, tw.Hi)
			if err != nil {
				b.Fatal(err)
			}
			results += len(rs)
		}
	}
	b.ReportMetric(float64(results)/float64(b.N), "results/op")
}

// BenchmarkPredictiveFetch times a whole predictive session at the public
// API on benchDB, as the repo benchmark's fly-through runs one: starting it
// and fetching the first and 50 subsequent frames of 0.1, conversion to
// Result included, cycling through the paper's overlaps 0 to 0.9999 and
// window sides 8, 14 and 20.
func BenchmarkPredictiveFetch(b *testing.B) {
	db := benchDB(b)
	r := rand.New(rand.NewSource(3))
	overlaps, sides := []float64{0, 0.5, 0.9, 0.9999}, []float64{8, 14, 20}
	results := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := workload.Generate(workload.PaperQuery(overlaps[i%4], sides[i/4%3]), r)
		if err != nil {
			b.Fatal(err)
		}
		var path []Waypoint
		for _, k := range q.Traj.Keys() {
			w := k.Window
			path = append(path, Waypoint{T: k.T, View: Rect{Min: []float64{w[0].Lo, w[1].Lo}, Max: []float64{w[0].Hi, w[1].Hi}}})
		}
		s, err := db.Predictive(path, PredictiveOptions{})
		if err != nil {
			b.Fatal(err)
		}
		for _, tw := range q.Times {
			rs, err := s.Fetch(tw.Lo, tw.Hi)
			if err != nil {
				b.Fatal(err)
			}
			results += len(rs)
		}
		s.Close()
	}
	b.ReportMetric(float64(results)/float64(b.N), "results/op")
}

// BenchmarkNonPredictiveFrame times one non-predictive frame at the public
// API on benchDB, conversion to Result included, as the repo benchmark's
// fly-through runs them: one session walks the frames of the paper's
// queries (overlaps 0 to 0.9999, window sides 8, 14 and 20), starting over
// with a full snapshot at each query's first frame. It is the pair of
// BenchmarkPredictiveFetch.
func BenchmarkNonPredictiveFrame(b *testing.B) {
	db := benchDB(b)
	r := rand.New(rand.NewSource(4))
	overlaps, sides := []float64{0, 0.5, 0.9, 0.9999}, []float64{8, 14, 20}
	var queries []*workload.Query
	for i := 0; i < 12; i++ {
		q, err := workload.Generate(workload.PaperQuery(overlaps[i%4], sides[i/4%3]), r)
		if err != nil {
			b.Fatal(err)
		}
		queries = append(queries, q)
	}
	s := db.NonPredictive(NonPredictiveOptions{})
	n, frame, results := 0, 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if frame == len(queries[n].Times) {
			n, frame = (n+1)%len(queries), 0
			s.Reset()
		}
		q := queries[n]
		w, tw := q.Windows[frame], q.Times[frame]
		rs, err := s.Snapshot(Rect{Min: []float64{w[0].Lo, w[1].Lo}, Max: []float64{w[0].Hi, w[1].Hi}}, tw.Lo, tw.Hi)
		if err != nil {
			b.Fatal(err)
		}
		results += len(rs)
		frame++
	}
	b.ReportMetric(float64(results)/float64(b.N), "results/op")
}
