// Airtraffic: anticipation queries over *current* motion states with the
// Tracker (the paper's future work (iii)). An en-route control
// center receives position/velocity reports from aircraft and asks
// forward-looking questions the historical index cannot answer:
//
//   - sector load "now + 10 minutes" (range query at a future instant),
//   - which flights will cross a weather cell in the next half hour
//     (interval query),
//   - what a patrol aircraft will encounter along its filed route
//     (trajectory query).
//
// Positions are in nautical-mile-like units, time in minutes; every
// answer carries the anticipated entry/exit times, assuming flights hold
// their current course until the next report.
package main

import (
	"fmt"
	"log"
	"math"
	"sort"

	"dynq"
)

func main() {
	tracker, err := dynq.NewTracker(dynq.TrackerOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// 40 flights reporting at t=0: positioned on a ring around the hub at
	// (220,220); half inbound toward it, half on crossing courses.
	for i := 0; i < 40; i++ {
		angle := float64(i) * 2 * math.Pi / 40
		pos := []float64{220 + 160*math.Cos(angle), 220 + 160*math.Sin(angle)}
		speed := 6 + math.Mod(float64(i)*1.3, 3) // units per minute
		heading := angle + math.Pi               // inbound
		if i%2 == 1 {
			heading += 0.9 // crossing traffic
		}
		vel := []float64{speed * math.Cos(heading), speed * math.Sin(heading)}
		if err := tracker.Update(dynq.ObjectID(1000+i), 0, pos, vel); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("tracking %d flights\n\n", tracker.Len())

	// 1. Sector load in 20 minutes: who will be inside sector [180,260]²?
	sector := dynq.Rect{Min: []float64{180, 180}, Max: []float64{260, 260}}
	sector20, err := tracker.At(sector, 20)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sector [180,260]^2 at t+20: %d flights anticipated\n", len(sector20))

	// 2. Weather cell [300,340]×[150,190] over the next 30 minutes: who
	// crosses it, and when?
	cell := dynq.Rect{Min: []float64{300, 150}, Max: []float64{340, 190}}
	crossing, err := tracker.During(cell, 0, 30)
	if err != nil {
		log.Fatal(err)
	}
	sort.Slice(crossing, func(i, j int) bool { return crossing[i].Appear < crossing[j].Appear })
	fmt.Printf("\nweather cell crossings in the next 30 min: %d\n", len(crossing))
	for i, a := range crossing {
		if i == 5 {
			fmt.Printf("  ... and %d more\n", len(crossing)-5)
			break
		}
		fmt.Printf("  flight %d enters t+%.1f, exits t+%.1f\n", a.ID, a.Appear, a.Vanish)
	}

	// 3. A patrol's filed route: 60×60 surveillance footprint sweeping
	// north-east over 25 minutes. Everything it will encounter:
	route := []dynq.Waypoint{
		{T: 0, View: dynq.Rect{Min: []float64{100, 100}, Max: []float64{160, 160}}},
		{T: 12, View: dynq.Rect{Min: []float64{200, 160}, Max: []float64{260, 220}}},
		{T: 25, View: dynq.Rect{Min: []float64{260, 260}, Max: []float64{320, 320}}},
	}
	contacts, err := tracker.Along(route)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npatrol route will encounter %d flights\n", len(contacts))

	// Mid-flight updates: one flight turns; anticipation adjusts.
	turning := dynq.ObjectID(1007)
	if before, err := tracker.During(cell, 30, 60); err == nil {
		fmt.Printf("\ncell occupancy t+30..60 before the turn: %d\n", len(before))
	}
	if err := tracker.Update(turning, 30, []float64{320, 170}, []float64{0, -8}); err != nil {
		log.Fatal(err)
	}
	after, err := tracker.During(cell, 30, 60)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("flight %d reported a turn at t=30; cell occupancy t+30..60 now: %d\n", turning, len(after))
}
