// Flythrough: the paper's motivating scenario — a terrain visualization
// client flying over a large mobile-object population in "tour mode"
// (a pre-registered trajectory), fetching the view contents at 10 frames
// per simulated time unit.
//
// The example runs the same tour twice, once with repeated snapshot
// queries (the naive baseline) and once as a predictive dynamic query,
// and prints the per-frame I/O of each — the contrast behind Figure 6.
package main

import (
	"fmt"
	"log"

	"dynq"
	"dynq/internal/motion"
)

const (
	world   = 100.0
	tourT0  = 10.0
	tourT1  = 60.0
	viewW   = 12.0
	frameDt = 0.1
)

func main() {
	db := buildDatabase()
	defer db.Close()

	// The tour: a closed sweep over the terrain, east then north then
	// back, at ~1.2 length units per time unit.
	waypoints := []dynq.Waypoint{
		{T: 10, View: view(5, 40)},
		{T: 30, View: view(70, 40)},
		{T: 45, View: view(70, 75)},
		{T: 60, View: view(20, 75)},
	}

	fmt.Println("running tour with naive per-frame snapshots...")
	naiveReads, naiveObjects := runNaive(db, waypoints)

	fmt.Println("running the same tour as a predictive dynamic query...")
	pdqReads, pdqDelivered := runPDQ(db, waypoints)

	frames := int((tourT1 - tourT0) / frameDt)
	fmt.Printf("\n%-28s %14s %14s\n", "", "naive", "PDQ")
	fmt.Printf("%-28s %14d %14d\n", "disk reads (whole tour)", naiveReads, pdqReads)
	fmt.Printf("%-28s %14.2f %14.2f\n", "disk reads per frame",
		float64(naiveReads)/float64(frames), float64(pdqReads)/float64(frames))
	fmt.Printf("%-28s %14d %14d\n", "objects shipped to client", naiveObjects, pdqDelivered)
	fmt.Printf("\nthe naive client re-receives every visible object each frame;\n")
	fmt.Printf("the PDQ client receives each object once with its disappearance time.\n")
}

func view(x, y float64) dynq.Rect {
	return dynq.Rect{Min: []float64{x, y}, Max: []float64{x + viewW, y + viewW}}
}

// buildDatabase indexes a 500-object population (1/10 of the paper's) —
// about 50k motion segments.
func buildDatabase() *dynq.DB {
	sim := motion.PaperConfig()
	sim.Objects = 500
	segs, err := motion.GenerateSegments(sim)
	if err != nil {
		log.Fatal(err)
	}
	db, err := dynq.Open(dynq.Options{})
	if err != nil {
		log.Fatal(err)
	}
	updates := make([]dynq.MotionUpdate, len(segs))
	for i, s := range segs {
		updates[i] = dynq.MotionUpdate{ID: s.ObjID, Segment: dynq.Segment{
			T0: s.Seg.T.Lo, T1: s.Seg.T.Hi,
			From: s.Seg.Start, To: s.Seg.End,
		}}
	}
	if err := db.BulkLoadUpdates(updates); err != nil {
		log.Fatal(err)
	}
	st, err := db.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d segments (tree height %d)\n\n", st.Segments, st.Height)
	return db
}

// runNaive replays the tour as independent snapshot queries, one per
// frame, interpolating the view between waypoints client-side.
func runNaive(db *dynq.DB, wps []dynq.Waypoint) (reads int64, objects int) {
	db.ResetCost()
	for t := tourT0; t < tourT1; t += frameDt {
		res, err := db.Snapshot(interpolate(wps, t), t, t+frameDt)
		if err != nil {
			log.Fatal(err)
		}
		objects += len(res)
	}
	return db.Cost().DiskReads, objects
}

// runPDQ replays the tour as one predictive session plus a client cache.
func runPDQ(db *dynq.DB, wps []dynq.Waypoint) (reads int64, delivered int) {
	db.ResetCost()
	sess, err := db.PredictiveQuery(wps, dynq.PredictiveOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()
	view := dynq.NewViewCache()
	peak := 0
	for t := tourT0; t < tourT1; t += frameDt {
		batch, err := sess.Fetch(t, t+frameDt)
		if err != nil {
			log.Fatal(err)
		}
		view.Apply(batch)
		view.Advance(t)
		delivered += len(batch)
		if view.Len() > peak {
			peak = view.Len()
		}
	}
	fmt.Printf("  peak client cache: %d objects\n", peak)
	return db.Cost().DiskReads, delivered
}

// interpolate reproduces the view the trajectory has at time t (what the
// renderer would compute from its camera path).
func interpolate(wps []dynq.Waypoint, t float64) dynq.Rect {
	if t <= wps[0].T {
		return wps[0].View
	}
	for i := 1; i < len(wps); i++ {
		if t <= wps[i].T {
			a, b := wps[i-1], wps[i]
			f := (t - a.T) / (b.T - a.T)
			lerp := func(x, y float64) float64 { return x + f*(y-x) }
			return dynq.Rect{
				Min: []float64{lerp(a.View.Min[0], b.View.Min[0]), lerp(a.View.Min[1], b.View.Min[1])},
				Max: []float64{lerp(a.View.Max[0], b.View.Max[0]), lerp(a.View.Max[1], b.View.Max[1])},
			}
		}
	}
	return wps[len(wps)-1].View
}
