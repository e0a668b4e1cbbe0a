package dynq

import (
	"math"
	"testing"
)

func TestTrackerBasics(t *testing.T) {
	tk, err := NewTracker(TrackerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if tk.Len() != 0 {
		t.Error("new tracker should be empty")
	}
	// A convoy heading east and one stray heading north.
	for i := 0; i < 5; i++ {
		err := tk.Update(ObjectID(i), 0, []float64{float64(i * 2), 50}, []float64{1, 0})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := tk.Update(99, 0, []float64{50, 0}, []float64{0, 2}); err != nil {
		t.Fatal(err)
	}
	if tk.Len() != 6 {
		t.Fatalf("len = %d", tk.Len())
	}
	// Who is in [10,20]×[45,55] at t=10? Convoy members at x0+10 ∈ [10,20].
	got, err := tk.At(Rect{Min: []float64{10, 45}, Max: []float64{20, 55}}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("at t=10: %d objects, want the 5 convoy members: %v", len(got), got)
	}
	// The stray reaches y∈[45,55] when 2t ∈ [45,55] ⇒ t ∈ [22.5,27.5].
	got, err = tk.During(Rect{Min: []float64{45, 45}, Max: []float64{55, 55}}, 20, 30)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range got {
		if a.ID == 99 {
			found = true
			if math.Abs(a.Appear-22.5) > 1e-9 || math.Abs(a.Vanish-27.5) > 1e-9 {
				t.Errorf("stray episode = [%g,%g], want [22.5,27.5]", a.Appear, a.Vanish)
			}
		}
	}
	if !found {
		t.Error("stray not anticipated in the window")
	}
	// Along a trajectory paralleling the convoy: everyone shows up.
	along, err := tk.Along([]Waypoint{
		{T: 0, View: Rect{Min: []float64{0, 45}, Max: []float64{12, 55}}},
		{T: 40, View: Rect{Min: []float64{40, 45}, Max: []float64{52, 55}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ids := map[ObjectID]bool{}
	for _, a := range along {
		ids[a.ID] = true
	}
	for i := 0; i < 5; i++ {
		if !ids[ObjectID(i)] {
			t.Errorf("convoy member %d missing from trajectory query", i)
		}
	}
	if tk.Cost().DiskReads == 0 {
		t.Error("tracker cost accounting empty")
	}
	tk.ResetCost()
	if tk.Cost().DiskReads != 0 {
		t.Error("ResetCost failed")
	}
	// Validation paths.
	if _, err := tk.At(Rect{Min: []float64{0}, Max: []float64{1}}, 50); err == nil {
		t.Error("bad rect should be rejected")
	}
	if _, err := tk.Along([]Waypoint{{T: 50, View: Rect{Min: []float64{0}, Max: []float64{1}}}}); err == nil {
		t.Error("bad waypoint rect should be rejected")
	}
	if !tk.Remove(99) || tk.Remove(99) {
		t.Error("remove semantics wrong")
	}
	if tk.Now() != 0 {
		t.Errorf("now = %g", tk.Now())
	}
}

func TestTrackerDefaultsAndErrors(t *testing.T) {
	if _, err := NewTracker(TrackerOptions{Dims: -1}); err == nil {
		t.Error("negative dims should be rejected")
	}
	tk, err := NewTracker(TrackerOptions{Dims: 3, Horizon: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Update(1, 0, []float64{1, 2, 3}, []float64{0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	got, err := tk.At(Rect{Min: []float64{0, 0, 0}, Max: []float64{5, 5, 5}}, 1)
	if err != nil || len(got) != 1 {
		t.Fatalf("3-d tracker query = %v, %v", got, err)
	}
}
