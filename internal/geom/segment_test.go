package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func seg(t0, t1, x0, y0, x1, y1 float64) Segment {
	return Segment{
		T:     Interval{t0, t1},
		Start: Point{x0, y0},
		End:   Point{x1, y1},
	}
}

// boundingBox is the segment's space-time box: its spatial extents, then
// its time interval.
func boundingBox(s Segment) Box {
	b := make(Box, 0, s.Dims()+1)
	for i := range s.Start {
		b = append(b, Interval{Lo: math.Min(s.Start[i], s.End[i]), Hi: math.Max(s.Start[i], s.End[i])})
	}
	return append(b, s.T)
}

func TestSegmentAt(t *testing.T) {
	s := seg(0, 10, 0, 0, 10, 20)
	if p := s.At(0); p[0] != 0 || p[1] != 0 {
		t.Errorf("At(0) = %v", p)
	}
	if p := s.At(10); p[0] != 10 || p[1] != 20 {
		t.Errorf("At(10) = %v", p)
	}
	if p := s.At(5); p[0] != 5 || p[1] != 10 {
		t.Errorf("At(5) = %v", p)
	}
	// Clamp outside validity.
	if p := s.At(-5); p[0] != 0 {
		t.Errorf("At(-5) = %v, should clamp to start", p)
	}
	if p := s.At(99); p[0] != 10 {
		t.Errorf("At(99) = %v, should clamp to end", p)
	}
	// Instantaneous segment.
	inst := seg(3, 3, 7, 8, 7, 8)
	if p := inst.At(3); p[0] != 7 || p[1] != 8 {
		t.Errorf("instantaneous At = %v", p)
	}
}

func TestSegmentIntersectsBoxExact(t *testing.T) {
	// Object crosses the box's corner region but its BB overlaps a larger
	// area: the classic false-admission case the exact test avoids.
	s := seg(0, 10, 0, 0, 10, 10) // diagonal motion
	// Query box occupies the upper-left corner of the BB: x∈[0,2], y∈[8,10].
	// The diagonal never enters it (x == y along the trajectory).
	q := Box{{0, 2}, {8, 10}, {0, 10}}
	if s.IntersectsBox(q) {
		t.Error("exact test should reject corner box the trajectory misses")
	}
	if !boundingBox(s).Overlaps(q) {
		t.Error("sanity: the BB does overlap (that is the point of the test)")
	}
	// A box straddling the diagonal is hit.
	q2 := Box{{4, 6}, {4, 6}, {0, 10}}
	if !s.IntersectsBox(q2) {
		t.Error("diagonal should pass through center box")
	}
	// Same spatial box but in a disjoint time window: no hit.
	q3 := Box{{4, 6}, {4, 6}, {20, 30}}
	if s.IntersectsBox(q3) {
		t.Error("time-disjoint query should not match")
	}
	// Time window clipped so the object has already left the region.
	q4 := Box{{0, 2}, {0, 2}, {5, 10}}
	if s.IntersectsBox(q4) {
		t.Error("object left [0,2]² before t=5")
	}
}

func TestSegmentOverlapTimeInBox(t *testing.T) {
	s := seg(0, 10, 0, 5, 10, 5) // horizontal motion at y=5
	q := Box{{2, 4}, {0, 10}, {0, 10}}
	iv := s.OverlapTimeInBox(q)
	if math.Abs(iv.Lo-2) > 1e-12 || math.Abs(iv.Hi-4) > 1e-12 {
		t.Errorf("overlap time = %v, want [2,4]", iv)
	}
	// Stationary object inside the box: whole clipped window.
	st := seg(0, 10, 3, 5, 3, 5)
	iv = st.OverlapTimeInBox(Box{{0, 4}, {0, 10}, {2, 6}})
	if iv != (Interval{2, 6}) {
		t.Errorf("stationary overlap = %v", iv)
	}
	// Stationary object outside: empty.
	if iv := st.OverlapTimeInBox(Box{{4, 5}, {0, 10}, {0, 10}}); !iv.Empty() {
		t.Errorf("outside stationary overlap = %v", iv)
	}
}

func TestSegmentCoordAndDist(t *testing.T) {
	s := seg(2, 6, 1, 1, 9, 1)
	cx := s.Coord(0)
	if at(cx, 2) != 1 || at(cx, 6) != 9 || at(cx, 4) != 5 {
		t.Error("Coord(0) interpolation wrong")
	}
	if d := s.DistSqAt(4, Point{5, 4}); d != 9 {
		t.Errorf("DistSqAt = %v, want 9", d)
	}
}

// DistSqAt computes At's position in place: its result is bit for bit the
// sum over At's point, for random, instantaneous, clamped and non-finite
// inputs alike, and it allocates nothing.
func TestDistSqAtMatchesAt(t *testing.T) {
	ref := func(s Segment, at float64, p Point) float64 {
		x := s.At(at)
		sum := 0.0
		for i := range x {
			dd := x[i] - p[i]
			sum += dd * dd
		}
		return sum
	}
	odd := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, math.Copysign(0, -1), 1e308}
	r := rand.New(rand.NewSource(7))
	pick := func() float64 {
		if r.Intn(4) == 0 {
			return odd[r.Intn(len(odd))]
		}
		return r.Float64()*200 - 100
	}
	for i := 0; i < 20000; i++ {
		lo := pick()
		s := Segment{T: Interval{lo, lo}, Start: Point{pick(), pick()}, End: Point{pick(), pick()}}
		if r.Intn(3) > 0 { // the rest instantaneous
			s.T.Hi = lo + r.Float64()*10
		}
		at := pick()
		if r.Intn(2) == 0 {
			at = s.T.Lo + (r.Float64()*1.4-0.2)*(s.T.Hi-s.T.Lo) // inside and either side
		}
		p := Point{pick(), pick()}
		got, want := s.DistSqAt(at, p), ref(s, at, p)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%v.DistSqAt(%g, %v) = %g, At then sum gives %g", s, at, p, got, want)
		}
	}
	s, p := seg(2, 6, 1, 1, 9, 1), Point{5, 4}
	if n := testing.AllocsPerRun(100, func() { s.DistSqAt(4, p) }); n != 0 {
		t.Errorf("DistSqAt allocates %v times per call", n)
	}
}

// Property: exact intersection implies bounding-box intersection (the BB
// is a conservative filter), and every reported overlap time is a time at
// which the object really is inside the query box.
func TestSegmentExactVsBBProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := Segment{
			T:     Interval{r.Float64() * 5, 5 + r.Float64()*5},
			Start: Point{r.Float64() * 10, r.Float64() * 10},
			End:   Point{r.Float64() * 10, r.Float64() * 10},
		}
		q := Box{randInterval(r).Expand(5), randInterval(r).Expand(5), {r.Float64() * 4, 4 + r.Float64()*6}}
		iv := s.OverlapTimeInBox(q)
		if !iv.Empty() {
			if !boundingBox(s).Overlaps(q) {
				return false // exact hit must imply BB hit
			}
			for i := 0; i < 8; i++ {
				tt := iv.Lo + r.Float64()*iv.Length()
				p := s.At(tt)
				// Position must be inside q's spatial extents (tolerantly).
				if p[0] < q[0].Lo-1e-9 || p[0] > q[0].Hi+1e-9 ||
					p[1] < q[1].Lo-1e-9 || p[1] > q[1].Hi+1e-9 {
					return false
				}
				if tt < q[2].Lo-1e-9 || tt > q[2].Hi+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: sampling the trajectory densely agrees with the analytic
// overlap interval (no interior misses).
func TestSegmentOverlapSamplingProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := Segment{
			T:     Interval{0, 10},
			Start: Point{r.Float64() * 10, r.Float64() * 10},
			End:   Point{r.Float64() * 10, r.Float64() * 10},
		}
		q := Box{{2, 8}, {2, 8}, {0, 10}}
		iv := s.OverlapTimeInBox(q)
		for i := 0; i <= 100; i++ {
			tt := float64(i) / 10
			p := s.At(tt)
			inside := p[0] >= 2 && p[0] <= 8 && p[1] >= 2 && p[1] <= 8
			if inside && !iv.ContainsValue(tt) {
				// Tolerate boundary-grazing samples.
				if math.Min(math.Abs(tt-iv.Lo), math.Abs(tt-iv.Hi)) < 1e-9 {
					continue
				}
				d := math.Min(math.Min(p[0]-2, 8-p[0]), math.Min(p[1]-2, 8-p[1]))
				if d < 1e-9 {
					continue
				}
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
