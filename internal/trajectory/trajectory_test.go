package trajectory

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dynq/internal/geom"
)

// inSet reports whether v lies in some interval of the set.
func inSet(s *geom.IntervalSet, v float64) bool {
	for _, iv := range s.Intervals() {
		if iv.ContainsValue(v) {
			return true
		}
	}
	return false
}

func window(x0, x1, y0, y1 float64) geom.Box {
	return geom.Box{{Lo: x0, Hi: x1}, {Lo: y0, Hi: y1}}
}

// straightTrajectory moves a w×w window rightwards at the given speed:
// window center starts at (cx, cy) at t=0 and ends at t=dur.
func straightTrajectory(t *testing.T, cx, cy, w, speed, dur float64) *Trajectory {
	t.Helper()
	tr, err := New([]Key{
		{T: 0, Window: window(cx-w/2, cx+w/2, cy-w/2, cy+w/2)},
		{T: dur, Window: window(cx-w/2+speed*dur, cx+w/2+speed*dur, cy-w/2, cy+w/2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("empty key list should be rejected")
	}
	if _, err := New([]Key{{T: 0, Window: geom.Box{}}}); err == nil {
		t.Error("zero-dimensional window should be rejected")
	}
	if _, err := New([]Key{{T: 0, Window: window(1, 0, 0, 1)}}); err == nil {
		t.Error("empty window should be rejected")
	}
	if _, err := New([]Key{
		{T: 0, Window: window(0, 1, 0, 1)},
		{T: 0, Window: window(0, 1, 0, 1)},
	}); err == nil {
		t.Error("non-increasing key times should be rejected")
	}
	if _, err := New([]Key{
		{T: 0, Window: window(0, 1, 0, 1)},
		{T: 1, Window: geom.Box{{Lo: 0, Hi: 1}}},
	}); err == nil {
		t.Error("dimension mismatch between keys should be rejected")
	}
}

func TestAccessorsAndImmutability(t *testing.T) {
	keys := []Key{
		{T: 0, Window: window(0, 8, 0, 8)},
		{T: 10, Window: window(10, 18, 0, 8)},
	}
	tr, err := New(keys)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Dims() != 2 {
		t.Errorf("dims = %d", tr.Dims())
	}
	if tr.TimeSpan() != (geom.Interval{Lo: 0, Hi: 10}) {
		t.Errorf("span = %v", tr.TimeSpan())
	}
	// Mutating the input or the returned keys must not affect the
	// trajectory.
	keys[0].Window[0] = geom.Interval{Lo: -99, Hi: 99}
	got := tr.Keys()
	got[1].Window[0] = geom.Interval{Lo: -99, Hi: 99}
	if tr.Keys()[0].Window[0] != (geom.Interval{Lo: 0, Hi: 8}) ||
		tr.Keys()[1].Window[0] != (geom.Interval{Lo: 10, Hi: 18}) {
		t.Error("trajectory state was mutated through aliasing")
	}
}

func TestWindowAt(t *testing.T) {
	tr := straightTrajectory(t, 4, 4, 8, 1, 10) // center x: 4 → 14
	w := tr.WindowAt(5)
	if w[0] != (geom.Interval{Lo: 5, Hi: 13}) || w[1] != (geom.Interval{Lo: 0, Hi: 8}) {
		t.Errorf("window at t=5: %v", w)
	}
	// Clamped outside the span.
	if tr.WindowAt(-5)[0] != (geom.Interval{Lo: 0, Hi: 8}) {
		t.Errorf("window before start: %v", tr.WindowAt(-5))
	}
	if tr.WindowAt(99)[0] != (geom.Interval{Lo: 10, Hi: 18}) {
		t.Errorf("window after end: %v", tr.WindowAt(99))
	}
}

func TestWindowAtMultiSegment(t *testing.T) {
	tr, err := New([]Key{
		{T: 0, Window: window(0, 2, 0, 2)},
		{T: 1, Window: window(10, 12, 0, 2)},
		{T: 3, Window: window(10, 12, 20, 22)},
	})
	if err != nil {
		t.Fatal(err)
	}
	w := tr.WindowAt(0.5)
	if w[0] != (geom.Interval{Lo: 5, Hi: 7}) {
		t.Errorf("first segment midpoint: %v", w)
	}
	w = tr.WindowAt(2)
	if w[1] != (geom.Interval{Lo: 10, Hi: 12}) || w[0] != (geom.Interval{Lo: 10, Hi: 12}) {
		t.Errorf("second segment midpoint: %v", w)
	}
}

// staticBox builds the dual-space box of a static object at (x, y) alive
// during [t0, t1].
func staticBox(x, y, t0, t1 float64) geom.Box {
	return geom.Box{{Lo: x, Hi: x}, {Lo: y, Hi: y}, {Lo: t0, Hi: t0}, {Lo: t1, Hi: t1}}
}

func TestOverlapBoxStationaryObject(t *testing.T) {
	// Window [0,8]² sweeping right at speed 1 for 20 tu. A point at
	// x=10, y=4 is covered while 10 ∈ [t, t+8] ⇒ t ∈ [2, 10].
	tr := straightTrajectory(t, 4, 4, 8, 1, 20)
	var set geom.IntervalSet
	tr.OverlapBox(staticBox(10, 4, 0, 100), &set)
	ivs := set.Intervals()
	if len(ivs) != 1 {
		t.Fatalf("episodes = %v", ivs)
	}
	if math.Abs(ivs[0].Lo-2) > 1e-9 || math.Abs(ivs[0].Hi-10) > 1e-9 {
		t.Errorf("visibility = %v, want [2,10]", ivs[0])
	}
	// Outside the swept corridor in y: never visible.
	set.Reset()
	tr.OverlapBox(staticBox(10, 20, 0, 100), &set)
	if !set.Empty() {
		t.Errorf("off-corridor box visible: %v", set.Intervals())
	}
	// Validity clipping: object only exists during [5, 6].
	set.Reset()
	tr.OverlapBox(staticBox(10, 4, 5, 6), &set)
	ivs = set.Intervals()
	if len(ivs) != 1 || math.Abs(ivs[0].Lo-5) > 1e-9 || math.Abs(ivs[0].Hi-6) > 1e-9 {
		t.Errorf("validity-clipped visibility = %v, want [5,6]", ivs)
	}
}

func TestOverlapBoxZigZagProducesEpisodes(t *testing.T) {
	// The window moves right over the box, away, and back: the box is
	// visible in two disjoint episodes.
	tr, err := New([]Key{
		{T: 0, Window: window(0, 4, 0, 4)},
		{T: 10, Window: window(20, 24, 0, 4)},
		{T: 20, Window: window(0, 4, 0, 4)},
	})
	if err != nil {
		t.Fatal(err)
	}
	var set geom.IntervalSet
	tr.OverlapBox(staticBox(10, 2, 0, 100), &set)
	ivs := set.Intervals()
	if len(ivs) != 2 {
		t.Fatalf("expected 2 visibility episodes, got %v", ivs)
	}
	// First pass: window covers x=10 while 10 ∈ [2t, 2t+4] ⇒ t ∈ [3, 5].
	if math.Abs(ivs[0].Lo-3) > 1e-9 || math.Abs(ivs[0].Hi-5) > 1e-9 {
		t.Errorf("first episode = %v, want [3,5]", ivs[0])
	}
	// Second pass is the mirror: t ∈ [15, 17].
	if math.Abs(ivs[1].Lo-15) > 1e-9 || math.Abs(ivs[1].Hi-17) > 1e-9 {
		t.Errorf("second episode = %v, want [15,17]", ivs[1])
	}
}

func TestOverlapBoxGrowingWindow(t *testing.T) {
	// The window grows in place (observer gaining altitude): a distant
	// point becomes visible once the border reaches it.
	tr, err := New([]Key{
		{T: 0, Window: window(4, 6, 4, 6)},
		{T: 10, Window: window(0, 10, 0, 10)},
	})
	if err != nil {
		t.Fatal(err)
	}
	var set geom.IntervalSet
	tr.OverlapBox(staticBox(8, 5, 0, 100), &set)
	ivs := set.Intervals()
	// Upper x border: 6 + 0.4t reaches 8 at t = 5.
	if len(ivs) != 1 || math.Abs(ivs[0].Lo-5) > 1e-9 || math.Abs(ivs[0].Hi-10) > 1e-9 {
		t.Errorf("growing-window visibility = %v, want [5,10]", ivs)
	}
}

func TestOverlapSegmentMovingObject(t *testing.T) {
	// Window [0,8]² moves right at speed 1; object moves left through it.
	tr := straightTrajectory(t, 4, 4, 8, 1, 20)
	obj := geom.Segment{
		T:     geom.Interval{Lo: 0, Hi: 20},
		Start: geom.Point{20, 4},
		End:   geom.Point{0, 4}, // speed -1 in x
	}
	var set geom.IntervalSet
	tr.OverlapSegment(obj, &set)
	ivs := set.Intervals()
	if len(ivs) != 1 {
		t.Fatalf("episodes = %v", ivs)
	}
	// Object x(t) = 20 - t; window [t, t+8]. Inside while t ≥ 6 and t ≤ 10.
	if math.Abs(ivs[0].Lo-6) > 1e-9 || math.Abs(ivs[0].Hi-10) > 1e-9 {
		t.Errorf("moving-object visibility = %v, want [6,10]", ivs[0])
	}
	// An object pacing the window stays visible the whole time.
	pacing := geom.Segment{
		T:     geom.Interval{Lo: 0, Hi: 20},
		Start: geom.Point{4, 4},
		End:   geom.Point{24, 4},
	}
	set.Reset()
	tr.OverlapSegment(pacing, &set)
	ivs = set.Intervals()
	if len(ivs) != 1 || math.Abs(ivs[0].Lo-0) > 1e-9 || math.Abs(ivs[0].Hi-20) > 1e-9 {
		t.Errorf("pacing object visibility = %v, want [0,20]", ivs)
	}
}

func TestSingleKeyTrajectory(t *testing.T) {
	tr, err := New([]Key{{T: 5, Window: window(0, 8, 0, 8)}})
	if err != nil {
		t.Fatal(err)
	}
	var set geom.IntervalSet
	tr.OverlapBox(staticBox(4, 4, 0, 10), &set)
	if set.Empty() || set.Hull() != (geom.Interval{Lo: 5, Hi: 5}) {
		t.Errorf("single-key overlap = %v", set.Intervals())
	}
	set.Reset()
	tr.OverlapBox(staticBox(40, 4, 0, 10), &set)
	if !set.Empty() {
		t.Error("far box should not overlap single-key window")
	}
	// Segment variant: object must be inside the window at T.
	set.Reset()
	obj := geom.Segment{T: geom.Interval{Lo: 0, Hi: 10}, Start: geom.Point{0, 4}, End: geom.Point{10, 4}}
	tr.OverlapSegment(obj, &set) // at t=5 the object is at x=5 ∈ [0,8]
	if set.Empty() {
		t.Error("object inside window at the key time should overlap")
	}
	// Object alive only outside the key time: no overlap.
	set.Reset()
	dead := geom.Segment{T: geom.Interval{Lo: 6, Hi: 10}, Start: geom.Point{4, 4}, End: geom.Point{4, 4}}
	tr.OverlapSegment(dead, &set)
	if !set.Empty() {
		t.Error("object born after the key time should not overlap")
	}
}

func TestInflateSPDQ(t *testing.T) {
	tr := straightTrajectory(t, 4, 4, 8, 1, 10)
	inflated, err := tr.Inflate(func(tt float64) float64 { return 1 + tt/10 })
	if err != nil {
		t.Fatal(err)
	}
	k := inflated.Keys()
	if k[0].Window[0] != (geom.Interval{Lo: -1, Hi: 9}) {
		t.Errorf("inflated first key = %v", k[0].Window)
	}
	if k[1].Window[0] != (geom.Interval{Lo: 8, Hi: 20}) {
		t.Errorf("inflated last key = %v", k[1].Window)
	}
	// SPDQ windows dominate PDQ windows: anything visible to the exact
	// trajectory is visible to the inflated one.
	var a, b geom.IntervalSet
	box := staticBox(12, 4, 0, 100)
	tr.OverlapBox(box, &a)
	inflated.OverlapBox(box, &b)
	if !a.Empty() && (b.Empty() || b.Hull().Lo > a.Hull().Lo || b.Hull().Hi < a.Hull().Hi) {
		t.Errorf("inflated visibility %v should contain exact visibility %v", b.Hull(), a.Hull())
	}
	if _, err := tr.Inflate(func(float64) float64 { return -1 }); err == nil {
		t.Error("negative inflation should be rejected")
	}
}

// Property: the analytic overlap interval agrees with dense sampling of
// "is the box inside the interpolated window at time t".
func TestOverlapBoxSamplingProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		keys := []Key{}
		tt := 0.0
		for k := 0; k < 3+r.Intn(3); k++ {
			cx, cy := r.Float64()*50, r.Float64()*50
			w := 4 + r.Float64()*10
			keys = append(keys, Key{T: tt, Window: window(cx, cx+w, cy, cy+w)})
			tt += 1 + r.Float64()*5
		}
		tr, err := New(keys)
		if err != nil {
			return false
		}
		box := staticBox(r.Float64()*60, r.Float64()*60, 0, 1000)
		var set geom.IntervalSet
		tr.OverlapBox(box, &set)
		span := tr.TimeSpan()
		for i := 0; i <= 300; i++ {
			tc := span.Lo + float64(i)/300*span.Length()
			w := tr.WindowAt(tc)
			inside := w[0].ContainsValue(box[0].Lo) && w[1].ContainsValue(box[1].Lo)
			if inside != inSet(&set, tc) {
				// Tolerate boundary grazing.
				d := math.Min(
					math.Min(math.Abs(w[0].Lo-box[0].Lo), math.Abs(w[0].Hi-box[0].Lo)),
					math.Min(math.Abs(w[1].Lo-box[1].Lo), math.Abs(w[1].Hi-box[1].Lo)),
				)
				if d > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: OverlapSegment agrees with sampling the moving object against
// the moving window.
func TestOverlapSegmentSamplingProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := mustTraj(r)
		span := tr.TimeSpan()
		obj := geom.Segment{
			T:     geom.Interval{Lo: span.Lo + r.Float64()*2, Hi: span.Hi - r.Float64()*2},
			Start: geom.Point{r.Float64() * 60, r.Float64() * 60},
			End:   geom.Point{r.Float64() * 60, r.Float64() * 60},
		}
		if obj.T.Empty() {
			return true
		}
		var set geom.IntervalSet
		tr.OverlapSegment(obj, &set)
		for i := 0; i <= 300; i++ {
			// The last sample can round one ulp past Hi, where the object
			// is no longer valid.
			tc := math.Min(obj.T.Lo+float64(i)/300*obj.T.Length(), obj.T.Hi)
			w := tr.WindowAt(tc)
			p := obj.At(tc)
			inside := w.ContainsPoint(p)
			if inside != inSet(&set, tc) {
				d := math.Min(
					math.Min(math.Abs(w[0].Lo-p[0]), math.Abs(w[0].Hi-p[0])),
					math.Min(math.Abs(w[1].Lo-p[1]), math.Abs(w[1].Hi-p[1])),
				)
				if d > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	// Seeds whose last sample once rounded past the object's end.
	for _, seed := range []int64{1266, 2407} {
		if !f(seed) {
			t.Errorf("seed %d: OverlapSegment disagrees with sampling", seed)
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func mustTraj(r *rand.Rand) *Trajectory {
	keys := []Key{}
	tt := 0.0
	for k := 0; k < 3; k++ {
		cx, cy := r.Float64()*50, r.Float64()*50
		w := 4 + r.Float64()*10
		keys = append(keys, Key{T: tt, Window: window(cx, cx+w, cy, cy+w)})
		tt += 2 + r.Float64()*5
	}
	tr, err := New(keys)
	if err != nil {
		panic(err)
	}
	return tr
}
