package geom

import (
	"math"
	"testing"
)

// The exact leaf test as it was before the leaf kernel, kept as the
// reference the kernel is held to: Intersect and Cover on math.Max/Min,
// SolveBetween as two half-plane solves and an intersection, and the
// per-axis loop of OverlapTimeInBox over a decoded segment.

func refIntersect(a, b Interval) Interval {
	return Interval{Lo: math.Max(a.Lo, b.Lo), Hi: math.Min(a.Hi, b.Hi)}
}

func refCover(a, b Interval) Interval {
	if a.Empty() {
		return b
	}
	if b.Empty() {
		return a
	}
	return Interval{Lo: math.Min(a.Lo, b.Lo), Hi: math.Max(a.Hi, b.Hi)}
}

func refSolveLE(l Linear, c float64, w Interval) Interval {
	if w.Empty() {
		return EmptyInterval()
	}
	if l.B == 0 {
		if l.A <= c {
			return w
		}
		return EmptyInterval()
	}
	tc := l.T0 + (c-l.A)/l.B
	if l.B > 0 {
		return refIntersect(w, Interval{Lo: math.Inf(-1), Hi: tc})
	}
	return refIntersect(w, Interval{Lo: tc, Hi: math.Inf(1)})
}

func refSolveBetween(l Linear, lo, hi float64, w Interval) Interval {
	ge := refSolveLE(Linear{A: -l.A, B: -l.B, T0: l.T0}, -lo, w)
	return refIntersect(refSolveLE(l, hi, w), ge)
}

func refOverlapTimeInBox(s Segment, q Box) Interval {
	d := s.Dims()
	w := refIntersect(s.T, q[d])
	for i := 0; i < d && !w.Empty(); i++ {
		w = refSolveBetween(s.Coord(i), q[i].Lo, q[i].Hi, w)
	}
	return w
}

// sameInterval is the kernel's contract: the same floats, or both empty
// (an empty interval has no canonical form).
func sameInterval(a, b Interval) bool {
	if a.Empty() && b.Empty() {
		return true
	}
	return math.Float64bits(a.Lo) == math.Float64bits(b.Lo) && math.Float64bits(a.Hi) == math.Float64bits(b.Hi)
}

var (
	nan    = math.NaN()
	inf    = math.Inf(1)
	negZer = math.Copysign(0, -1)
	// Values an interval bound, a coordinate or a query border can take,
	// with the ones float comparison treats specially.
	edgeValues = []float64{nan, -inf, inf, negZer, 0, 1, -1, 0.5, 3, 1e-45, -1e-45, math.MaxFloat32, -math.MaxFloat32,
		float64(float32(0.1)), math.Nextafter(float64(float32(0.1)), 1)}
)

func hasNaN(xs ...float64) bool {
	for _, x := range xs {
		if x != x {
			return true
		}
	}
	return false
}

// Intersect and Cover on builtin min/max are the math.Max/Min ones bit for
// bit on every pair of bounds — ±0 and ±Inf included — with one exception
// that needs a NaN: math.Max(+Inf, NaN) is +Inf and math.Min(-Inf, NaN) is
// -Inf, where the builtins propagate the NaN. No NaN reaches an interval:
// the public API refuses it in segments and queries.
func TestIntersectCoverMatchReference(t *testing.T) {
	sameBound := func(got, want, a, b float64) bool {
		if math.Float64bits(got) == math.Float64bits(want) || (got != got && want != want) {
			return true // one NaN is as good as another
		}
		return got != got && math.IsInf(want, 0) && hasNaN(a, b) // the exception
	}
	for _, a := range edgeValues {
		for _, b := range edgeValues {
			for _, c := range edgeValues {
				for _, d := range edgeValues {
					x, y := Interval{a, b}, Interval{c, d}
					got, want := x.Intersect(y), refIntersect(x, y)
					if !sameBound(got.Lo, want.Lo, a, c) || !sameBound(got.Hi, want.Hi, b, d) {
						t.Fatalf("%v ∩ %v = %v, reference %v", x, y, got, want)
					}
					got, want = x.Cover(y), refCover(x, y)
					if !sameBound(got.Lo, want.Lo, a, c) || !sameBound(got.Hi, want.Hi, b, d) {
						t.Fatalf("%v ⊎ %v = %v, reference %v", x, y, got, want)
					}
					if !hasNaN(a, b, c, d) && (!sameInterval(x.Intersect(y), refIntersect(x, y)) || !sameInterval(x.Cover(y), refCover(x, y))) {
						t.Fatalf("%v, %v: NaN-free operands must agree exactly", x, y)
					}
				}
			}
		}
	}
	// The exception, pinned so a change of either side is noticed.
	if got := (Interval{inf, 0}).Intersect(Interval{nan, 0}).Lo; got == got {
		t.Errorf("max(+Inf, NaN) = %v, want NaN", got)
	}
	if got := refIntersect(Interval{inf, 0}, Interval{nan, 0}).Lo; got != inf {
		t.Errorf("math.Max(+Inf, NaN) = %v, want +Inf", got)
	}
}

// finite32 reports whether v is what a stored coordinate can be: finite at
// the index's float32 key precision.
func finite32(v float64) bool {
	f := float64(float32(v))
	return f-f == 0
}

// checkSolveBetween compares the one-pass solver with the two-pass
// reference for a line with finite coefficients (a line through stored
// coordinates has no others) and any NaN-free bounds and window.
func checkSolveBetween(t *testing.T, l Linear, lo, hi float64, w Interval) {
	t.Helper()
	got := l.SolveBetween(lo, hi, w) // must not panic on anything
	if hasNaN(l.A, l.B, l.T0, lo, hi, w.Lo, w.Hi) || math.IsInf(l.A, 0) || math.IsInf(l.B, 0) || math.IsInf(l.T0, 0) {
		return
	}
	if want := refSolveBetween(l, lo, hi, w); !sameInterval(got, want) {
		t.Fatalf("%+v.SolveBetween(%v, %v, %v) = %v (%x %x), reference %v (%x %x)", l, lo, hi, w,
			got, math.Float64bits(got.Lo), math.Float64bits(got.Hi), want, math.Float64bits(want.Lo), math.Float64bits(want.Hi))
	}
}

func TestSolveBetweenMatchesReference(t *testing.T) {
	lines := []Linear{{A: 0, B: 0, T0: 0}, {A: 0, B: 1, T0: 0}, {A: 0, B: -1, T0: negZer}, {A: negZer, B: 0.5, T0: 3},
		{A: 1, B: 1e-45, T0: -1}, {A: -1, B: -math.MaxFloat32, T0: 1}, {A: 3, B: 0, T0: 1}, {A: 0.5, B: 3, T0: negZer}}
	for _, l := range lines {
		for _, lo := range edgeValues {
			for _, hi := range edgeValues {
				for _, wlo := range edgeValues {
					for _, whi := range edgeValues {
						checkSolveBetween(t, l, lo, hi, Interval{wlo, whi})
					}
				}
			}
		}
	}
}

func FuzzSolveBetween(f *testing.F) {
	f.Add(0.0, 1.0, 0.0, -1.0, 1.0, 0.0, 10.0)
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, negZer, 0.0)
	f.Add(negZer, -2.5, negZer, -inf, inf, -inf, inf)
	f.Add(1.0, 1e-45, 5.0, 1.0, 1.0, 5.0, 5.0)
	f.Add(nan, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0)
	f.Fuzz(func(t *testing.T, a, b, t0, lo, hi, wlo, whi float64) {
		checkSolveBetween(t, Linear{A: a, B: b, T0: t0}, lo, hi, Interval{wlo, whi})
	})
}

// checkClip compares the exact test on a 1-d segment with the reference:
// the segment as stored (float32-representable, finite), the query any
// NaN-free box.
func checkClip(t *testing.T, t0, x0, t1, x1, lo, hi, wlo, whi float64) {
	t.Helper()
	if !finite32(t0) || !finite32(x0) || !finite32(t1) || !finite32(x1) || hasNaN(lo, hi, wlo, whi) {
		return
	}
	f := func(v float64) float64 { return float64(float32(v)) }
	s := Segment{T: Interval{f(t0), f(t1)}, Start: Point{f(x0)}, End: Point{f(x1)}}
	q := Box{{lo, hi}, {wlo, whi}}
	if got, want := s.OverlapTimeInBox(q), refOverlapTimeInBox(s, q); !sameInterval(got, want) {
		t.Fatalf("%+v in %v: %v (%x %x), reference %v (%x %x)", s, q,
			got, math.Float64bits(got.Lo), math.Float64bits(got.Hi), want, math.Float64bits(want.Lo), math.Float64bits(want.Hi))
	}
}

func TestOverlapTimeInBoxMatchesReference(t *testing.T) {
	vals := []float64{-inf, inf, negZer, 0, 1, -1, 0.5, 3, 1e-45, math.MaxFloat32, -math.MaxFloat32, float64(float32(0.1))}
	for _, t0 := range vals[2:] {
		for _, t1 := range vals[2:] {
			for _, x0 := range vals[2:] {
				for _, x1 := range vals[2:] {
					for _, lo := range vals {
						for _, hi := range vals[:6] {
							checkClip(t, t0, x0, t1, x1, lo, hi, t0, t1)
							checkClip(t, t0, x0, t1, x1, lo, hi, -inf, inf)
							checkClip(t, t0, x0, t1, x1, lo, hi, 0.5, 1)
						}
					}
				}
			}
		}
	}
}

func FuzzOverlapTimeInBox(f *testing.F) {
	f.Add(0.0, 0.0, 10.0, 10.0, 2.0, 4.0, 0.0, 10.0)
	f.Add(1.0, 5.0, 1.0, 7.0, 5.0, 5.0, 1.0, 1.0)        // zero-length segment on the border
	f.Add(0.0, negZer, 4.0, 0.0, negZer, 0.0, -inf, inf) // signed zeros, unbounded window
	f.Add(0.0, 3.0, 2.0, 3.0, 3.0, inf, 2.0, 1.0)        // stationary, empty window
	f.Add(0.0, 0.1, 1e-45, 0.3, 0.1, 0.3, 0.0, 1e-45)    // steepest slope float32 allows
	f.Add(5.0, 1.0, 9.0, -1.0, -inf, 0.0, 9.0, 20.0)     // touches the window's start
	f.Fuzz(checkClip)
}
