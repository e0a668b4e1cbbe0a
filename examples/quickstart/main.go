// Quickstart: index a handful of mobile objects, pose a snapshot query,
// then follow a moving observer with a predictive dynamic query.
package main

import (
	"fmt"
	"log"

	"dynq"
)

func main() {
	// An in-memory database over 2-d space.
	db, err := dynq.Open(dynq.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// Three objects: a truck driving east, a drone circling via two motion
	// updates, and a stationary depot. Each Insert is one motion update:
	// linear motion over a validity interval.
	updates := []struct {
		id  dynq.ObjectID
		seg dynq.Segment
	}{
		{1, dynq.Segment{T0: 0, T1: 10, From: []float64{0, 5}, To: []float64{20, 5}}},   // truck
		{2, dynq.Segment{T0: 0, T1: 5, From: []float64{10, 0}, To: []float64{10, 10}}},  // drone leg 1
		{2, dynq.Segment{T0: 5, T1: 10, From: []float64{10, 10}, To: []float64{15, 5}}}, // drone leg 2
		{3, dynq.Segment{T0: 0, T1: 10, From: []float64{18, 6}, To: []float64{18, 6}}},  // depot (static)
	}
	for _, u := range updates {
		if err := db.Insert(u.id, u.seg); err != nil {
			log.Fatal(err)
		}
	}

	// Snapshot query: who is inside [8,12]×[3,7] during t ∈ [4,6]?
	res, err := db.Snapshot(dynq.Rect{Min: []float64{8, 3}, Max: []float64{12, 7}}, 4, 6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("snapshot [8,12]x[3,7] during t=[4,6]:")
	for _, r := range res {
		fmt.Printf("  object %d visible t=[%.2f, %.2f]\n", r.ID, r.Appear, r.Disappear)
	}

	// A moving observer: the view slides east from [0,10]² to [10,20]×[0,10]
	// between t=0 and t=10. The predictive session streams each object once,
	// with the interval it stays in view; the ViewCache reconstructs the
	// visible set every frame.
	sess, err := db.Predictive([]dynq.Waypoint{
		{T: 0, View: dynq.Rect{Min: []float64{0, 0}, Max: []float64{10, 10}}},
		{T: 10, View: dynq.Rect{Min: []float64{10, 0}, Max: []float64{20, 10}}},
	}, dynq.PredictiveOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()

	view := dynq.NewViewCache()
	fmt.Println("\nfly-through, 1 time unit per frame:")
	for f := 0; f < 10; f++ {
		t0, t1 := float64(f), float64(f+1)
		batch, err := sess.Fetch(t0, t1)
		if err != nil {
			log.Fatal(err)
		}
		view.Apply(batch)
		gone := view.Advance(t0)
		fmt.Printf("  frame t=%2.0f: +%d new, -%d gone, %d visible\n",
			t0, len(batch), len(gone), view.Len())
	}

	// The whole fly-through touched each index node at most once:
	cost := db.Cost()
	fmt.Printf("\ntotal cost: %d disk reads, %d distance computations, %d results\n",
		cost.DiskReads, cost.DistanceComps, cost.Results)
}
