package dynq

import "testing"

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
