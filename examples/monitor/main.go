// Monitor: the paper's situational-awareness scenario — a vehicle in a
// military exercise continuously monitoring its vicinity while other
// units keep reporting motion updates.
//
// The observer's own motion is not known in advance (it reacts to what it
// sees), so the vicinity query runs as a non-predictive dynamic query:
// each snapshot returns only the contacts not reported by the previous
// one, while newly inserted motion updates are guaranteed to surface
// (the timestamp-guarded discardability of Section 4.2). Every few
// frames the vehicle also asks for its 3 nearest contacts (the paper's
// future-work kNN extension).
package main

import (
	"fmt"
	"log"
	"math"

	"dynq"
	"dynq/internal/motion"
)

const (
	world    = 100.0
	radius   = 7.0 // vicinity half-width
	frameDt  = 0.5
	duration = 40.0
)

func main() {
	// Historical contacts: 200 units reporting since t=0.
	db, stream := buildDatabase()
	defer db.Close()

	sess := db.NonPredictive(dynq.NonPredictiveOptions{})
	view := dynq.NewViewCache()

	// The observer wanders pseudo-randomly (unknown trajectory).
	ox, oy := 30.0, 50.0
	heading := 0.7
	contactsSeen := map[dynq.ObjectID]bool{}

	for t := 0.0; t < duration; t += frameDt {
		// Units keep reporting: feed every motion update due by now into
		// the index while the dynamic query is live. The stream is
		// time-ordered; one look-ahead slot holds the first not-yet-due
		// update between frames.
		inserted := 0
		for {
			if pending == nil {
				ts, ok := stream.Next()
				if !ok {
					break
				}
				pending = &ts
			}
			if pending.Seg.T.Lo > t {
				break
			}
			insertUpdate(db, *pending)
			pending = nil
			inserted++
		}

		// Move the observer (decide direction only now — non-predictive).
		heading += 0.25 * math.Sin(t/3)
		ox = clamp(ox+math.Cos(heading)*1.5*frameDt, radius, world-radius)
		oy = clamp(oy+math.Sin(heading)*1.5*frameDt, radius, world-radius)

		vicinity := dynq.Rect{
			Min: []float64{ox - radius, oy - radius},
			Max: []float64{ox + radius, oy + radius},
		}
		batch, err := sess.Snapshot(vicinity, t, t+frameDt)
		if err != nil {
			log.Fatal(err)
		}
		view.Apply(batch)
		view.Advance(t)
		for _, r := range batch {
			contactsSeen[r.ID] = true
		}

		if int(t/frameDt)%16 == 0 {
			nbs, err := db.KNN([]float64{ox, oy}, t, 3)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("t=%5.1f pos=(%4.1f,%4.1f) +%2d new contacts, %2d in view, %2d updates fed",
				t, ox, oy, len(batch), view.Len(), inserted)
			if len(nbs) > 0 {
				fmt.Printf(" | nearest: unit %d at %.1f", nbs[0].ID, nbs[0].Dist)
			}
			fmt.Println()
		}
	}

	cost := db.Cost()
	fmt.Printf("\ndistinct contacts encountered: %d\n", len(contactsSeen))
	fmt.Printf("query cost over %d frames: %d disk reads, %d distance computations\n",
		int(duration/frameDt), cost.DiskReads, cost.DistanceComps)
}

var pending *motion.TimedSegment

func insertUpdate(db *dynq.DB, ts motion.TimedSegment) {
	err := db.Insert(ts.ObjID, dynq.Segment{
		T0: ts.Seg.T.Lo, T1: ts.Seg.T.Hi,
		From: ts.Seg.Start, To: ts.Seg.End,
	})
	if err != nil {
		log.Fatal(err)
	}
}

// buildDatabase creates an empty dual-axes index plus the live update
// stream that will be fed during monitoring.
func buildDatabase() (*dynq.DB, *motion.Stream) {
	db, err := dynq.Open(dynq.Options{DualTimeAxes: true})
	if err != nil {
		log.Fatal(err)
	}
	sim := motion.PaperConfig()
	sim.Objects = 200
	sim.Duration = duration
	stream, err := motion.NewStream(sim)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("monitoring %d units for %.0f time units (%d motion updates incoming)\n\n",
		sim.Objects, duration, stream.Remaining())
	return db, stream
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
