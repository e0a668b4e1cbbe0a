package dynq

import (
	"math"
	"testing"
)

func TestWithinSelfJoin(t *testing.T) {
	db := newTestDB(t, Options{})
	// A tight cluster of three and a loner.
	for i, pos := range [][2]float64{{10, 10}, {10.5, 10}, {10, 10.8}, {90, 90}} {
		err := db.Insert(ObjectID(i), Segment{
			T0: 0, T1: 10,
			From: []float64{pos[0], pos[1]}, To: []float64{pos[0], pos[1]},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	pairs, err := db.Within(1.0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 3 { // (0,1), (0,2), (1,2)
		t.Fatalf("pairs = %v", pairs)
	}
	for _, p := range pairs {
		if p.A >= p.B {
			t.Errorf("pair not normalized: %v", p)
		}
		if p.Dist > 1.0 {
			t.Errorf("pair too far: %v", p)
		}
		if p.A == 3 || p.B == 3 {
			t.Errorf("loner joined: %v", p)
		}
	}
}

func TestJoinWithOtherDB(t *testing.T) {
	trucks := newTestDB(t, Options{})
	zones := newTestDB(t, Options{})
	if err := trucks.Insert(1, Segment{T0: 0, T1: 10, From: []float64{0, 0}, To: []float64{20, 0}}); err != nil {
		t.Fatal(err)
	}
	if err := zones.Insert(7, Segment{T0: 0, T1: 10, From: []float64{10, 1}, To: []float64{10, 1}}); err != nil {
		t.Fatal(err)
	}
	// Truck reaches x=10 at t=5; distance to the zone is 1 there.
	pairs, err := trucks.JoinWith(zones, 1.5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 || pairs[0].A != 1 || pairs[0].B != 7 {
		t.Fatalf("pairs = %v", pairs)
	}
	if math.Abs(pairs[0].Dist-1) > 1e-6 {
		t.Errorf("dist = %g, want 1", pairs[0].Dist)
	}
	// At t=0 the truck is 10+ away: no pair.
	pairs, err = trucks.JoinWith(zones, 1.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 0 {
		t.Errorf("unexpected pairs at t=0: %v", pairs)
	}
}

func TestCountSeries(t *testing.T) {
	db := newTestDB(t, Options{})
	// Five static objects spread along x = 0, 10, 20, 30, 40 at y=5.
	for i := 0; i < 5; i++ {
		err := db.Insert(ObjectID(i), Segment{
			T0: 0, T1: 100,
			From: []float64{float64(i * 10), 5}, To: []float64{float64(i * 10), 5},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// A 15-wide window sliding from x=[0,15] at t=0 to x=[30,45] at t=30.
	wps := []Waypoint{
		{T: 0, View: Rect{Min: []float64{0, 0}, Max: []float64{15, 10}}},
		{T: 30, View: Rect{Min: []float64{30, 0}, Max: []float64{45, 10}}},
	}
	counts, err := db.CountSeries(wps, []float64{0, 15, 30})
	if err != nil {
		t.Fatal(err)
	}
	// t=0: objects at 0,10 → 2. t=15: window [15,30] → 20,30 → 2.
	// t=30: window [30,45] → 30,40 → 2.
	want := []int{2, 2, 2}
	for i := range want {
		if counts[i] != want[i] {
			t.Errorf("count[%d] = %d, want %d (counts=%v)", i, counts[i], want[i], counts)
		}
	}
	if _, err := db.CountSeries(wps, []float64{40}); err == nil {
		t.Error("sample beyond the trajectory should be rejected")
	}
	if _, err := db.CountSeries([]Waypoint{{T: 0, View: Rect{Min: []float64{0}, Max: []float64{1}}}}, []float64{0}); err == nil {
		t.Error("bad waypoint rect should be rejected")
	}
}

func TestAdaptiveSessionAPI(t *testing.T) {
	db := newTestDB(t, Options{})
	populate(t, db, 80, 9)
	sess, err := db.Adaptive(AdaptiveOptions{Slack: 1, Horizon: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if sess.Predictive() {
		t.Error("session should start non-predictive")
	}
	x := 10.0
	delivered := 0
	for f := 0; f < 40; f++ {
		t0 := 5 + float64(f)*0.5
		x += 0.4
		rs, err := sess.Frame(Rect{Min: []float64{x, 30}, Max: []float64{x + 10, 40}}, t0, t0+0.5)
		if err != nil {
			t.Fatalf("frame %d: %v", f, err)
		}
		delivered += len(rs)
	}
	if !sess.Predictive() {
		t.Error("steady motion should end in predictive mode")
	}
	if sess.Handoffs() == 0 {
		t.Error("expected at least one hand-off")
	}
	if delivered == 0 {
		t.Error("session delivered nothing")
	}
	if _, err := sess.Frame(Rect{Min: []float64{0}, Max: []float64{1}}, 100, 101); err == nil {
		t.Error("bad rect should be rejected")
	}
	if _, err := db.Adaptive(AdaptiveOptions{}); err == nil {
		t.Error("zero options should be rejected")
	}
}
