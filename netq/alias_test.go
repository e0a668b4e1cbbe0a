package netq

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dynq"
	"dynq/internal/obs"
)

// ownershipDB is a small population of wandering objects plus object
// 9999, which stands still at (50, 50) for the whole run.
func ownershipDB(t *testing.T, units int) dynq.Database {
	t.Helper()
	var db dynq.Database
	var err error
	if units == 1 {
		db, err = dynq.Open(dynq.Options{})
	} else {
		db, err = dynq.OpenSharded(dynq.ShardOptions{Shards: units})
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	r := rand.New(rand.NewSource(7))
	var ups []dynq.MotionUpdate
	for id := 0; id < 120; id++ {
		x, y := r.Float64()*100, 40+r.Float64()*20
		for tt := 0.0; tt < 80; tt += 8 {
			nx, ny := x+r.Float64()*4-2, y+r.Float64()*4-2
			ups = append(ups, dynq.MotionUpdate{ID: dynq.ObjectID(id), Segment: dynq.Segment{T0: tt, T1: tt + 8, From: []float64{x, y}, To: []float64{nx, ny}}})
			x, y = nx, ny
		}
	}
	ups = append(ups, dynq.MotionUpdate{ID: 9999, Segment: dynq.Segment{T0: 0, T1: 80, From: []float64{50, 50}, To: []float64{50, 50}}})
	if err := db.ApplyUpdates(context.Background(), ups, dynq.WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	return db
}

func copySegment(s dynq.Segment) dynq.Segment {
	s.From = append([]float64(nil), s.From...)
	s.To = append([]float64(nil), s.To...)
	return s
}

func copyResults(rs []dynq.Result) []dynq.Result {
	out := make([]dynq.Result, len(rs))
	for i, r := range rs {
		out[i] = r
		out[i].Segment = copySegment(r.Segment)
	}
	return out
}

// scribble overwrites every coordinate of every answer and appends to both
// points, one answer at a time, checking after each that the answers not
// yet touched still read as want says: no two share memory, and an append
// to one point reaches neither its sibling nor a neighbour.
func scribble[T any](t *testing.T, what string, rs, want []T, seg func(*T) *dynq.Segment) {
	t.Helper()
	for i := range rs {
		s := seg(&rs[i])
		for _, p := range []*[]float64{&s.From, &s.To} {
			for k := range *p {
				(*p)[k] = -12345
			}
			*p = append(*p, -1, -2, -3)
		}
		if !reflect.DeepEqual(rs[i+1:], want[i+1:]) {
			t.Fatalf("%s: writing to answer %d of %d changed a later one", what, i, len(rs))
		}
		if s.To[0] != -12345 || s.From[len(s.From)-1] != -3 {
			t.Fatalf("%s: answer %d's points overlap each other", what, i)
		}
	}
}

func resultSegment(r *dynq.Result) *dynq.Segment     { return &r.Segment }
func neighborSegment(n *dynq.Neighbor) *dynq.Segment { return &n.Segment }

func dialT(t *testing.T, addr string) *Client {
	t.Helper()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// What a client decodes is the caller's: writing to it and appending to it
// changes no other answer of the response and no later response — for
// snapshots, non-predictive and predictive frames and KNN
// neighbours, on one unit and on four. Twin connections fly the same
// sessions; one's answers are written to after every frame, the other's
// never.
func TestDecodedAnswersOwnTheirMemory(t *testing.T) {
	world := dynq.Rect{Min: []float64{-50, -50}, Max: []float64{150, 150}}
	path := []dynq.Waypoint{
		{T: 0, View: dynq.Rect{Min: []float64{0, 30}, Max: []float64{10, 70}}},
		{T: 40, View: dynq.Rect{Min: []float64{90, 30}, Max: []float64{100, 70}}},
		{T: 80, View: dynq.Rect{Min: []float64{0, 30}, Max: []float64{10, 70}}},
	}
	for _, units := range []int{1, 4} {
		t.Run(fmt.Sprintf("units=%d", units), func(t *testing.T) {
			db := ownershipDB(t, units)
			addr, stop := startServer(t, db)
			defer stop()
			a, b := dialT(t, addr), dialT(t, addr)

			first, err := a.Snapshot(world, 0, 80)
			if err != nil || len(first) != db.Len() {
				t.Fatalf("snapshot: %d of %d results, err %v", len(first), db.Len(), err)
			}
			want := copyResults(first)
			scribble(t, "snapshot", first, want, resultSegment)
			if again, err := a.Snapshot(world, 0, 80); err != nil || !reflect.DeepEqual(again, want) {
				t.Fatalf("snapshot after writing to the previous one's results differs (err %v)", err)
			}

			nbs, err := a.KNN([]float64{50, 50}, 40, 10)
			if err != nil || len(nbs) != 10 {
				t.Fatalf("knn: %d neighbours, err %v", len(nbs), err)
			}
			wantNbs := make([]dynq.Neighbor, len(nbs))
			for i, n := range nbs {
				wantNbs[i] = n
				wantNbs[i].Segment = copySegment(n.Segment)
			}
			scribble(t, "knn", nbs, wantNbs, neighborSegment)
			if again, err := a.KNN([]float64{50, 50}, 40, 10); err != nil || !reflect.DeepEqual(again, wantNbs) {
				t.Fatalf("knn after writing to the previous one's neighbours differs (err %v)", err)
			}

			delivered := 0
			for f := 0; f < 30; f++ {
				x := float64(f) * 3
				view := dynq.Rect{Min: []float64{x, 30}, Max: []float64{x + 12, 70}}
				ra, err := a.NonPredictive(view, float64(f), float64(f)+1)
				if err != nil {
					t.Fatal(err)
				}
				rb, err := b.NonPredictive(view, float64(f), float64(f)+1)
				if err != nil || !reflect.DeepEqual(ra, rb) {
					t.Fatalf("npdq frame %d differs from its untouched twin (err %v)", f, err)
				}
				scribble(t, fmt.Sprintf("npdq frame %d", f), ra, copyResults(rb), resultSegment)
				delivered += len(rb)
			}

			for _, cl := range []*Client{a, b} {
				if err := cl.StartPredictive(path, false); err != nil {
					t.Fatal(err)
				}
			}
			var episodes []dynq.Result // of object 9999, from the untouched twin
			for f := 0; f < 16; f++ {
				ra, err := a.FetchPredictive(float64(f)*5, float64(f)*5+5)
				if err != nil {
					t.Fatal(err)
				}
				rb, err := b.FetchPredictive(float64(f)*5, float64(f)*5+5)
				if err != nil || !reflect.DeepEqual(ra, rb) {
					t.Fatalf("pdq frame %d differs from its untouched twin (err %v)", f, err)
				}
				for _, r := range rb {
					if r.ID == 9999 {
						episodes = append(episodes, r)
					}
				}
				scribble(t, fmt.Sprintf("pdq frame %d", f), ra, copyResults(rb), resultSegment)
				delivered += len(rb)
			}
			if len(episodes) != 2 || &episodes[0].Segment.From[0] == &episodes[1].Segment.From[0] {
				t.Fatalf("object 9999 should arrive in two episodes that share no coordinates, got %+v", episodes)
			}

			if delivered < 60 {
				t.Fatalf("the sessions delivered %d results: too few to mean anything", delivered)
			}
		})
	}
}

// What the server keeps from a request — the view on its span, a
// session's waypoints, the segments an ApplyUpdates stores — is its own:
// later requests on the connection, read and decoded through the same
// buffers with other values, change none of it.
func TestServerKeepsItsOwnCopies(t *testing.T) {
	db := testDB(t)
	srv, addr, stop := startServerKeep(t, db)
	defer stop()
	cl := dialT(t, addr)

	tc := obs.NewTraceContext()
	if _, err := cl.SnapshotCtx(obs.ContextWithTrace(context.Background(), tc),
		dynq.Rect{Min: []float64{1, 2}, Max: []float64{30, 40}}, 0, 1); err != nil {
		t.Fatal(err)
	}
	path := []dynq.Waypoint{
		{T: 0, View: dynq.Rect{Min: []float64{0, 40}, Max: []float64{10, 60}}},
		{T: 10, View: dynq.Rect{Min: []float64{40, 40}, Max: []float64{50, 60}}},
	}
	if err := cl.StartPredictive(path, false); err != nil {
		t.Fatal(err)
	}
	twin, err := db.Predictive(path, dynq.PredictiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	stored := dynq.Segment{T0: 0, T1: 100, From: []float64{500.5, 600.25}, To: []float64{510.5, 610.25}}
	if err := cl.ApplyUpdates([]dynq.MotionUpdate{{ID: 8001, Segment: stored}}); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 5; i++ {
		if _, err := cl.Snapshot(dynq.Rect{Min: []float64{-7, -8}, Max: []float64{-1, -2}}, 5, 6); err != nil {
			t.Fatal(err)
		}
		far := dynq.Segment{T0: 0, T1: 1, From: []float64{-900, -901}, To: []float64{-902, -903}}
		if err := cl.ApplyUpdates([]dynq.MotionUpdate{{ID: dynq.ObjectID(9000 + i), Segment: far}}); err != nil {
			t.Fatal(err)
		}
	}

	span, ok := findSpan(srv.Tracer().Trace(tc.TraceID.String()), "snapshot")
	if !ok {
		t.Fatal("no span for the first snapshot")
	}
	if !reflect.DeepEqual(span.ViewMin, []float64{1, 2}) || !reflect.DeepEqual(span.ViewMax, []float64{30, 40}) {
		t.Errorf("the first snapshot's span reads view %v-%v, want [1 2]-[30 40]", span.ViewMin, span.ViewMax)
	}
	for f := 0; f < 10; f++ {
		got, err := cl.FetchPredictive(float64(f), float64(f+1))
		if err != nil {
			t.Fatal(err)
		}
		want, err := twin.Fetch(float64(f), float64(f+1))
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("pdq frame %d over the wire differs from the same session run directly (err %v)", f, err)
		}
	}
	rs, err := db.Snapshot(dynq.Rect{Min: []float64{490, 590}, Max: []float64{520, 620}}, 0, 100)
	if err != nil || len(rs) != 1 || !reflect.DeepEqual(rs[0].Segment, stored) {
		t.Fatalf("the stored segment reads %+v (err %v), want %+v", rs, err, stored)
	}
}
