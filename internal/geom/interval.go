// Package geom provides the geometric primitives of the paper's Section 3:
// intervals (Definition 1), boxes (Definition 2), points, motion segments,
// and the linear-inequality machinery used to compute the time intervals
// during which moving borders and moving points overlap axis-aligned
// regions (Section 4.1, Figure 3).
//
// All computation is performed in float64. Conversions to the float32
// on-disk key format round outward (see f32.go) so that a stored bounding
// box always contains the exact geometry it summarizes.
package geom

import "math"

// Interval is a closed range of values [Lo, Hi] (Definition 1 of the
// paper). An interval with Lo > Hi is empty. A single value v is
// represented as [v, v].
type Interval struct {
	Lo, Hi float64
}

// EmptyInterval returns a canonical empty interval.
func EmptyInterval() Interval { return Interval{Lo: 1, Hi: 0} }

// UniverseInterval returns the interval covering all representable values.
func UniverseInterval() Interval {
	return Interval{Lo: math.Inf(-1), Hi: math.Inf(1)}
}

// IntervalOf returns the interval [v, v].
func IntervalOf(v float64) Interval { return Interval{Lo: v, Hi: v} }

// Empty reports whether the interval contains no values.
func (iv Interval) Empty() bool { return iv.Lo > iv.Hi }

// Length returns Hi-Lo, or 0 for an empty interval.
func (iv Interval) Length() float64 {
	if iv.Empty() {
		return 0
	}
	return iv.Hi - iv.Lo
}

// Intersect returns the common sub-range of two intervals (the paper's ∩).
// The result is empty if the intervals do not overlap.
func (iv Interval) Intersect(o Interval) Interval {
	return Interval{Lo: max(iv.Lo, o.Lo), Hi: min(iv.Hi, o.Hi)}
}

// Cover returns the smallest interval containing both operands (the
// paper's coverage operator ⊎). Covering with an empty interval returns
// the other operand unchanged.
func (iv Interval) Cover(o Interval) Interval {
	if iv.Empty() {
		return o
	}
	if o.Empty() {
		return iv
	}
	return Interval{Lo: min(iv.Lo, o.Lo), Hi: max(iv.Hi, o.Hi)}
}

// Overlaps reports whether the two intervals share at least one value
// (the paper's ≬).
func (iv Interval) Overlaps(o Interval) bool {
	return !iv.Intersect(o).Empty()
}

// Contains reports whether o is entirely inside iv. Every interval
// contains the empty interval.
func (iv Interval) Contains(o Interval) bool {
	if o.Empty() {
		return true
	}
	return iv.Lo <= o.Lo && o.Hi <= iv.Hi
}

// ContainsValue reports whether v lies in [Lo, Hi].
func (iv Interval) ContainsValue(v float64) bool {
	return iv.Lo <= v && v <= iv.Hi
}

// Expand returns the interval grown by delta on both sides. A negative
// delta shrinks it (possibly to empty).
func (iv Interval) Expand(delta float64) Interval {
	return Interval{Lo: iv.Lo - delta, Hi: iv.Hi + delta}
}

// Mid returns the midpoint of the interval.
func (iv Interval) Mid() float64 { return (iv.Lo + iv.Hi) / 2 }
