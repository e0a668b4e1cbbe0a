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

// clipMargin is ClipMisses' margin, relative to the scale of the times.
const clipMargin = 0x1p-40

// ClipMisses reports, without dividing, that ClipLine(t0, x0, t1, x1, lo,
// hi, w) is empty for every non-empty window w inside [t0, t1]: both end
// points lie beyond one border of [lo, hi], far enough that ClipLine's
// rounding cannot carry the computed crossing back into [t0, t1]. The end
// points and times must be float32 values, as a page stores them; a NaN
// or infinite operand makes it return false.
//
// The proof. Let gap > 0 be how far the nearer end point lies beyond the
// border, W = max−min ≥ 0 and D = t1−t0.
//   - t1 == t0: LinearBetween is the constant x0, which SolveBetween
//     compares against [lo, hi] directly, and x0 lies beyond a border.
//   - x1 == x0: the same, through B = 0/D = 0.
//   - otherwise the exact crossing time of that border lies gap·D/W
//     before t0 (the line moves away from the border) or after t1 (it
//     moves towards it). ClipLine computes it as t0 + (c−x0)/B, with c
//     the border and B = (x1−x0)/D: five roundings to the offset q, each of
//     relative error at most u = 2⁻⁵³, and one to the sum. Float32
//     operands keep every step in float64's normal range (|B| ≥ 2⁻²⁷⁸),
//     and an overflow goes to the infinity of the right sign, which is
//     still beyond the window. With |q| ≤ gap·D/W + D, the computed
//     crossing lies within 6.2u·(gap·D/W + D + |t0|) of the exact one.
//     ClipMargin's test, rounding included, implies gap·D/W > 2⁻⁴¹·(|t0| +
//     |t1| + D), so that error is below 2⁻⁹·gap·D/W: the crossing stays
//     strictly before t0 or strictly after t1, and SolveBetween's
//     intersection with w is empty.
//
// Inverted validity (t1 < t0) returns false: the left side is negative,
// the right one is not. ClipLine's non-empty results are untouched by
// construction — callers skip it only where it returns an empty interval.
func ClipMisses(t0, x0, t1, x1, lo, hi float64) bool {
	xlo, xhi := min(x0, x1), max(x0, x1)
	gap := max(lo-xhi, xlo-hi)
	return gap > 0 && ClipMargin(t0, t1, gap, xhi-xlo)
}

// ClipMargin is ClipMisses' margin test, its one statement: end points
// w = |x1 − x0| apart whose nearer one lies gap > 0 beyond a border are far
// enough beyond it for times t0, t1 that ClipLine's rounding cannot carry
// the crossing back into [t0, t1].
func ClipMargin(t0, t1, gap, w float64) bool {
	dt := t1 - t0
	// max(t, -t) is |t| at a quarter of math.Abs's inlining cost, which
	// would keep this out of the per-entry loops.
	return t1 == t0 || gap*dt > clipMargin*w*(max(t0, -t0)+max(t1, -t1)+dt)
}

// BeyondGap returns, when x0 and x1 both lie strictly beyond one border of
// [lo, hi], how far the nearer of them lies beyond it and w = |x1 − x0|;
// otherwise gap is 0: an end point inside or on a border, or a NaN. It
// decides by comparisons alone. For lo ≤ hi a positive gap is ClipMisses'
// gap and w its xhi − xlo, the same floats (a rounded difference only
// changes sign with its operands), so BeyondGap and ClipMargin reject
// exactly what ClipMisses rejects. For lo > hi ClipMisses' gap may be
// larger.
func BeyondGap(x0, x1, lo, hi float64) (gap, w float64) {
	switch {
	case x0 < lo && x1 < lo:
		if gap, w = lo-x1, x1-x0; w < 0 {
			gap, w = lo-x0, -w
		}
	case x0 > hi && x1 > hi:
		if gap, w = x0-hi, x1-x0; w < 0 {
			gap, w = x1-hi, -w
		}
	}
	return gap, w
}
