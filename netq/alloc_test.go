package netq

import (
	"testing"

	"dynq"
)

// TestWireAllocationBudget: what the wire adds to a snapshot — both ends
// of a loopback round trip, in this process — is a handful of
// allocations whatever the answer's size. The codec appends results
// straight into the connection's buffer, and the client decodes a
// non-empty answer into exactly two: one slice and one float slab.
// (Under gob a round trip added about five allocations per result.)
func TestWireAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	db, err := dynq.Open(dynq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 2000; i++ {
		x, y := float64(i%100), float64(i/100)
		if err := db.Insert(dynq.ObjectID(i), dynq.Segment{T0: 0, T1: 100, From: []float64{x, y}, To: []float64{x, y}}); err != nil {
			t.Fatal(err)
		}
	}
	addr, stop := startServer(t, db)
	defer stop()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var rest []float64 // what the wire adds beyond the answer's slice and slab
	for _, c := range []struct {
		results int
		view    dynq.Rect
	}{
		{0, dynq.Rect{Min: []float64{200, 200}, Max: []float64{210, 210}}},
		{20, dynq.Rect{Min: []float64{10, 5}, Max: []float64{19, 6}}},
		{200, dynq.Rect{Min: []float64{0, 0}, Max: []float64{19, 9}}},
	} {
		rs, err := cl.Snapshot(c.view, 1, 2)
		if err != nil || len(rs) != c.results {
			t.Fatalf("snapshot: %d results, want %d (err %v)", len(rs), c.results, err)
		}
		wire := testing.AllocsPerRun(200, func() {
			if _, err := cl.Snapshot(c.view, 1, 2); err != nil {
				t.Fatal(err)
			}
		})
		direct := testing.AllocsPerRun(200, func() {
			if _, err := db.Snapshot(c.view, 1, 2); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%3d results: %.1f allocs over the wire, %.1f direct", c.results, wire, direct)
		if wire-direct > 16 {
			t.Errorf("%d results: the wire adds %.1f allocations, budget 16", c.results, wire-direct)
		}
		own := 0.0
		if c.results > 0 {
			own = 2
		}
		rest = append(rest, wire-direct-own)
	}
	for _, a := range rest[1:] {
		if a-rest[0] > 1 || rest[0]-a > 1 {
			t.Errorf("the wire's allocations beside the answer vary with it: %v for 0, 20 and 200 results", rest)
		}
	}
}
