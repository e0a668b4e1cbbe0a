package geom

import "math"

func sqrt(x float64) float64 { return math.Sqrt(x) }

// Linear is the affine function of time v(t) = A + B·(t - T0). It models
// the moving borders of a query trapezoid (Section 4.1, Figure 3) and the
// coordinates of linearly translating objects (Equation 1).
type Linear struct {
	A  float64 // value at t = T0
	B  float64 // slope
	T0 float64 // reference time
}

// At evaluates the linear form at time t.
func (l Linear) At(t float64) float64 { return l.A + l.B*(t-l.T0) }

// LinearBetween returns the linear form interpolating value v0 at time t0
// and value v1 at time t1. If t1 == t0 the form is constant v0.
func LinearBetween(t0, v0, t1, v1 float64) Linear {
	if t1 == t0 {
		return Linear{A: v0, B: 0, T0: t0}
	}
	return Linear{A: v0, B: (v1 - v0) / (t1 - t0), T0: t0}
}

// Sub returns the linear form l(t) - o(t).
func (l Linear) Sub(o Linear) Linear {
	// Rebase o to l.T0: o(t) = o.A + o.B*(l.T0 - o.T0) + o.B*(t - l.T0).
	oa := o.A + o.B*(l.T0-o.T0)
	return Linear{A: l.A - oa, B: l.B - o.B, T0: l.T0}
}

// SolveLE returns the sub-interval of window w on which l(t) ≤ c.
//
// This single solver subsumes the paper's "four cases" of Figure 3(b):
// an upward- or downward-moving border crossing a fixed bound yields a
// half-line in t, clipped to the window; a parallel border yields either
// the whole window or nothing.
func (l Linear) SolveLE(c float64, w Interval) Interval {
	if w.Empty() {
		return EmptyInterval()
	}
	if l.B == 0 {
		if l.A <= c {
			return w
		}
		return EmptyInterval()
	}
	// l(t) = c at tc.
	tc := l.T0 + (c-l.A)/l.B
	if l.B > 0 {
		// Increasing: l(t) ≤ c for t ≤ tc.
		return w.Intersect(Interval{Lo: math.Inf(-1), Hi: tc})
	}
	// Decreasing: l(t) ≤ c for t ≥ tc.
	return w.Intersect(Interval{Lo: tc, Hi: math.Inf(1)})
}

// SolveGE returns the sub-interval of window w on which l(t) ≥ c.
func (l Linear) SolveGE(c float64, w Interval) Interval {
	return Linear{A: -l.A, B: -l.B, T0: l.T0}.SolveLE(-c, w)
}

// SolveBetween returns the sub-interval of w on which lo ≤ l(t) ≤ hi. It
// is SolveLE(hi, w) ∩ SolveGE(lo, w) in one pass: each crossing time is
// computed by the very operations those two perform (SolveGE solves the
// negated form, hence the negations below), so the bounds are the same
// floats, and where one side is unsatisfiable the result is merely empty.
func (l Linear) SolveBetween(lo, hi float64, w Interval) Interval {
	if w.Empty() {
		return EmptyInterval()
	}
	if l.B == 0 {
		if lo <= l.A && l.A <= hi {
			return w
		}
		return EmptyInterval()
	}
	tHi := l.T0 + (hi-l.A)/l.B      // l(t) = hi
	tLo := l.T0 + (-lo - -l.A)/-l.B // l(t) = lo
	if l.B > 0 {
		return Interval{Lo: max(w.Lo, tLo), Hi: min(w.Hi, tHi)}
	}
	return Interval{Lo: max(w.Lo, tHi), Hi: min(w.Hi, tLo)}
}

// ClipLine returns the part of window w during which the line through
// (t0, x0) and (t1, x1) stays inside [lo, hi]. It is the one definition of
// the exact leaf test's arithmetic, per axis: Segment.OverlapTimeInBox
// feeds it coordinates from a decoded segment, the R-tree's in-place test
// feeds it the same values read off the page, and both get the same floats.
func ClipLine(t0, x0, t1, x1, lo, hi float64, w Interval) Interval {
	return LinearBetween(t0, x0, t1, x1).SolveBetween(lo, hi, w)
}
