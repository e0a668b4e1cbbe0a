package geom

import "math"

// SweptBox is PDQ's gate ahead of the predictive leaf test
// (trajectory.OverlapMotion): the box a moving query window sweeps over its
// time span, per spatial axis the hull of every key window's extent, with
// the scales of the margin by which an entry must lie beyond it. The
// borders interpolate linearly between keys, so in exact arithmetic the
// window at every instant of the span lies inside the box; the margin
// (SweptBox.Rejects) covers the rounding. trajectory.New builds it once per
// trajectory; rtree.NodeView.NextSwept applies it to the entries of a
// leaf page.
type SweptBox struct {
	span Interval
	tau  float64 // the key times' scale, at least 2⁻¹⁰⁰
	axes []SweptAxis
}

// SweptAxis is one dimension of a swept box: the hull [Lo, Hi] of the key
// windows' extents, the largest magnitude of a key bound (Scale, Λ) and of
// a border's slope (Slope, β).
type SweptAxis struct {
	Lo, Hi       float64
	Scale, Slope float64
}

// NewSweptBox returns the swept box of a window moving over span, per axis
// as axes holds it; the box takes axes over. It floors the scales where
// the margin's proof needs it (2⁻¹⁰⁰ on the key times' scale, which is
// |span.Lo| or |span.Hi|, 2⁻¹⁰⁰⁰ on Λ and β). Where the proof does not hold
// the gate is off, every axis infinite so that nothing lies beyond it: a
// span that is an instant or not finite, a NaN key, a key bound beyond
// 2⁸⁰⁰, a key time or border slope beyond 2⁴⁰⁰.
func NewSweptBox(span Interval, axes []SweptAxis) SweptBox {
	g := SweptBox{span: span, tau: max(span.Lo, -span.Lo, span.Hi, -span.Hi, 0x1p-100), axes: axes}
	ok := span.Lo < span.Hi && g.tau <= 0x1p400
	for i := range axes {
		ax := &axes[i]
		ax.Scale, ax.Slope = max(ax.Scale, 0x1p-1000), max(ax.Slope, 0x1p-1000)
		ok = ok && ax.Scale <= 0x1p800 && ax.Slope <= 0x1p400
	}
	if !ok {
		for i := range axes {
			axes[i].Lo, axes[i].Hi = math.Inf(-1), math.Inf(1)
		}
	}
	return g
}

// Span returns the time span the window sweeps.
func (g *SweptBox) Span() Interval { return g.span }

// sweptMarginRel is the gate's margin, relative to the scales of the
// values: 2⁻⁴⁴, 512 times the unit roundoff, where the proof needs 16.2.
const sweptMarginRel = 0x1p-44

// Rejects is the one statement of PDQ's gate: it reports that
// OverlapMotion is empty for an entry valid over [t0, t1] whose coordinate
// on axis i runs from x0[i] to x1[i] (float32 values, as a page stores
// them). It rejects an entry with, on some axis, both end points beyond one
// border of the box, the nearer by gap > 0 and w = |x1 − x0| apart
// (BeyondGap), far enough that OverlapMotion's rounding cannot bring the
// computed overlap back: every query segment's episode comes out empty.
// It declines (returns false) wherever the proof below does not hold: a
// NaN or infinite validity bound or end point up to that axis, an inverted
// validity, or a box whose gate is off.
//
// The proof. Take the lower border (the upper one mirrors it). Write
// u = 2⁻⁵³, dt = t1 − t0, τ = tau + |t0| + |t1| (tau bounds every key
// time), W = |x1 − x0|, Λ and β the axis' scale and slope,
// K = |x0| + |x1| + Λ + 2τβ, and Bx for the object's computed slope: 0
// when dt = 0 (LinearBetween's constant), else within 3.01u of
// (x1−x0)/dt. Fix a query segment j and a window w ⊂ [T_j, T_j+1] ∩
// [t0, t1]; OverlapMotion solves on such windows only, each axis narrowing
// the last one's.
//   - The forms, exactly. On [t0, t1] the object's form stays within
//     3.01u·W of its end points' hull: its slope is a difference over a
//     difference, three roundings. On [T_j, T_j+1] the stored border stays
//     within 3.01u·|L_j+1 − L_j| ≤ 6.02uΛ of its keys' hull, which lies
//     inside the swept box. So x − lower ≤ −gap + 3.01uW + 6.02uΛ on w.
//   - The difference. Linear.Sub rebases one form to the other's
//     reference time T (t0 for the lower border, T_j for the upper) and
//     subtracts: four roundings of terms bounded by |x0|, Λ, βτ and |Bx|τ,
//     and one of the slope difference, which moves the form at t ∈ w by
//     u(|Bx| + β)·|t − T|, where |t − T| ≤ 2τ, and ≤ dt when T = t0.
//     Summed, the form SolveGE solves, taken exactly, is below
//     −gap + 8.04u·(K + |Bx|τ) on w; with gap ≥ 16.1u·(K + |Bx|τ), below
//     −gap/2.
//   - The crossing. A zero slope leaves a negative constant, which
//     SolveLE compares directly: empty. Otherwise the exact root lies
//     δ ≥ gap/(2.02(|Bx| + β)) beyond w, on the side SolveGE cuts away.
//     SolveLE computes it as T + q, q the quotient, in two roundings: for
//     a root δ' ≥ δ from w, within 2.01u·(δ' + 2τ) + uτ of it, which is
//     less than δ' once δ > 5.03uτ, and gap > 10.07u·τ·(|Bx| + β) ensures
//     that (K holds 2τβ). A quotient that overflows goes to the infinity
//     on the root's side. The window is empty, and stays empty.
//   - Both bounds hold when gap·dt > 16.2u·(dt·K + τ·W), and for dt = 0
//     when gap > 16.2u·K. The test below, the roundings of gap, w and its
//     own eight included, implies that with 2⁻⁴⁴(1 − 14u) for 16.2u.
//   - Ranges. NewSweptBox's floors (2⁻¹⁰⁰ on tau, 2⁻¹⁰⁰⁰ on Λ and β) keep
//     the absolute error of an underflowing step, at most 2⁻¹⁰⁷⁴, below a
//     hundredth of uK and of uτ; its caps (Λ ≤ 2⁸⁰⁰, key times and
//     β ≤ 2⁴⁰⁰, else the bounds are infinite), a finite validity and
//     float32 end points keep every step but the quotient finite.
//   - The other axes. Finite values make finite windows, each inside the
//     last, so once one axis' solve is empty the episode is, whatever the
//     later axes hold. A NaN or infinity on an earlier axis could make the
//     window NaN, which Interval.Empty calls non-empty: Rejects declines
//     at the first NaN or infinite end point.
func (g *SweptBox) Rejects(t0, t1 float64, x0, x1 []float64) bool {
	dt := t1 - t0
	if !(dt >= 0 && dt-dt == 0) {
		return false
	}
	tau := g.tau + math.Abs(t0) + math.Abs(t1)
	tw := tau // the weight of w: 0 for an instant, whose forms are constants
	if dt == 0 {
		dt, tw = 1, 0
	}
	x1 = x1[:len(x0)]
	for i, ax := range g.axes[:len(x0)] {
		a, b := x0[i], x1[i]
		if a-a != 0 || b-b != 0 {
			return false // a NaN here could make a later axis' window NaN, which is not empty
		}
		if gap, w := BeyondGap(a, b, ax.Lo, ax.Hi); gap > 0 {
			k := math.Abs(a) + math.Abs(b) + ax.Scale + 2*tau*ax.Slope
			if gap*dt > sweptMarginRel*(tw*w+dt*k) {
				return true
			}
		}
	}
	return false
}
