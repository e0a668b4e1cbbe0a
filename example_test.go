package dynq_test

import (
	"fmt"
	"log"

	"dynq"
)

// Opening a database, recording motion updates and posing a snapshot
// query.
func ExampleDB_Snapshot() {
	db, err := dynq.Open(dynq.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// A truck drives east along y=5 between t=0 and t=10.
	db.Insert(1, dynq.Segment{T0: 0, T1: 10, From: []float64{0, 5}, To: []float64{20, 5}})
	// A depot sits still.
	db.Insert(2, dynq.Segment{T0: 0, T1: 10, From: []float64{18, 6}, To: []float64{18, 6}})

	res, err := db.Snapshot(dynq.Rect{Min: []float64{8, 3}, Max: []float64{12, 7}}, 4, 6)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range res {
		fmt.Printf("object %d visible during [%.1f, %.1f]\n", r.ID, r.Appear, r.Disappear)
	}
	// Output:
	// object 1 visible during [4.0, 6.0]
}

// A predictive dynamic query streams each object once, with the interval
// it stays inside the moving view; the ViewCache reconstructs the visible
// set every frame.
func ExampleDB_Predictive() {
	db, err := dynq.Open(dynq.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	// Three stationary markers along the observer's path.
	for i, x := range []float64{5, 15, 25} {
		db.Insert(dynq.ObjectID(i+1), dynq.Segment{
			T0: 0, T1: 30, From: []float64{x, 5}, To: []float64{x, 5},
		})
	}

	// The view [0,10]×[0,10] slides east to [20,30]×[0,10] over 20 time
	// units.
	sess, err := db.Predictive([]dynq.Waypoint{
		{T: 0, View: dynq.Rect{Min: []float64{0, 0}, Max: []float64{10, 10}}},
		{T: 20, View: dynq.Rect{Min: []float64{20, 0}, Max: []float64{30, 10}}},
	}, dynq.PredictiveOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()

	for {
		r, err := sess.Next(0, 20)
		if err != nil {
			log.Fatal(err)
		}
		if r == nil {
			break
		}
		fmt.Printf("object %d appears at t=%.0f\n", r.ID, r.Appear)
	}
	// Output:
	// object 1 appears at t=0
	// object 2 appears at t=5
	// object 3 appears at t=15
}

// A non-predictive session returns only the objects not delivered by the
// previous snapshot.
func ExampleDB_NonPredictive() {
	db, err := dynq.Open(dynq.Options{DualTimeAxes: true})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	for i, x := range []float64{2, 6, 14} {
		db.Insert(dynq.ObjectID(i+1), dynq.Segment{
			T0: 0, T1: 30, From: []float64{x, 5}, To: []float64{x, 5},
		})
	}
	sess := db.NonPredictive(dynq.NonPredictiveOptions{})

	first, _ := sess.Snapshot(dynq.Rect{Min: []float64{0, 0}, Max: []float64{10, 10}}, 0, 1)
	fmt.Printf("frame 1: %d new\n", len(first))
	// The view shifts slightly east: only the newly covered object
	// arrives.
	second, _ := sess.Snapshot(dynq.Rect{Min: []float64{4, 0}, Max: []float64{15, 10}}, 1, 2)
	fmt.Printf("frame 2: %d new\n", len(second))
	// Output:
	// frame 1: 2 new
	// frame 2: 1 new
}

// The client cache keyed on disappearance time.
func ExampleViewCache() {
	view := dynq.NewViewCache()
	view.Apply([]dynq.Result{
		{ID: 7, Disappear: 12},
		{ID: 9, Disappear: 4},
	})
	gone := view.Advance(6) // t=6: object 9 left at t=4
	fmt.Printf("evicted %d, %d still visible\n", len(gone), view.Len())
	// Output:
	// evicted 1, 1 still visible
}

// Anticipation queries over current motion states with the Tracker.
func ExampleTracker() {
	tracker, err := dynq.NewTracker(dynq.TrackerOptions{})
	if err != nil {
		log.Fatal(err)
	}
	// At t=0 a vehicle is at (0,5) moving east at 2 units per time unit.
	tracker.Update(42, 0, []float64{0, 5}, []float64{2, 0})

	// When will it cross the zone x∈[10,20]?
	hits, err := tracker.During(dynq.Rect{Min: []float64{10, 0}, Max: []float64{20, 10}}, 0, 100)
	if err != nil {
		log.Fatal(err)
	}
	for _, h := range hits {
		fmt.Printf("object %d inside during [%.1f, %.1f]\n", h.ID, h.Appear, h.Vanish)
	}
	// Output:
	// object 42 inside during [5.0, 10.0]
}

// A proximity self-join: pairs of objects within a distance of each other
// at a time instant.
func ExampleDB_Within() {
	db, err := dynq.Open(dynq.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	db.Insert(1, dynq.Segment{T0: 0, T1: 10, From: []float64{0, 0}, To: []float64{10, 0}})
	db.Insert(2, dynq.Segment{T0: 0, T1: 10, From: []float64{10, 0}, To: []float64{0, 0}})

	// The two objects pass each other at t=5 (both at x=5).
	pairs, err := db.Within(1.0, 5)
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range pairs {
		fmt.Printf("objects %d and %d are %.1f apart\n", p.A, p.B, p.Dist)
	}
	// Output:
	// objects 1 and 2 are 0.0 apart
}
