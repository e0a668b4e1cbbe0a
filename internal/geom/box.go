package geom

import (
	"fmt"
	"strings"
)

// Box is an n-dimensional axis-aligned box ⟨I₁,…,Iₙ⟩ (Definition 2 of the
// paper): the cartesian product of one interval per dimension. A box is
// empty iff any of its extents is empty.
//
// Dimension order is a convention of the caller. The index packages use
// spatial dimensions first, temporal dimension(s) last.
type Box []Interval

// NewBox allocates a box with n empty extents.
func NewBox(n int) Box {
	b := make(Box, n)
	for i := range b {
		b[i] = EmptyInterval()
	}
	return b
}

// Clone returns a deep copy of the box.
func (b Box) Clone() Box {
	c := make(Box, len(b))
	copy(c, b)
	return c
}

// Empty reports whether the box covers no region (some extent is empty).
func (b Box) Empty() bool {
	for _, iv := range b {
		if iv.Empty() {
			return true
		}
	}
	return false
}

// Intersect returns the component-wise intersection of two boxes of equal
// dimensionality.
func (b Box) Intersect(o Box) Box {
	if len(b) != len(o) {
		panic(fmt.Sprintf("geom: intersect of %d-d box with %d-d box", len(b), len(o)))
	}
	r := make(Box, len(b))
	for i := range b {
		r[i] = b[i].Intersect(o[i])
	}
	return r
}

// Cover returns the smallest box containing both operands (⊎ applied
// per dimension). Covering with an empty box returns the other operand.
func (b Box) Cover(o Box) Box {
	if b.Empty() {
		return o.Clone()
	}
	if o.Empty() {
		return b.Clone()
	}
	r := make(Box, len(b))
	for i := range b {
		r[i] = b[i].Cover(o[i])
	}
	return r
}

// CoverInPlace grows b to also contain o. If b is empty it becomes a copy
// of o.
func (b Box) CoverInPlace(o Box) {
	if o.Empty() {
		return
	}
	if b.Empty() {
		copy(b, o)
		return
	}
	for i := range b {
		b[i] = b[i].Cover(o[i])
	}
}

// Overlaps reports whether the two boxes share at least one point.
func (b Box) Overlaps(o Box) bool {
	for i := range b {
		if !b[i].Overlaps(o[i]) {
			return false
		}
	}
	return true
}

// Contains reports whether o lies entirely inside b. Every box contains
// an empty box.
func (b Box) Contains(o Box) bool {
	if o.Empty() {
		return true
	}
	for i := range b {
		if !b[i].Contains(o[i]) {
			return false
		}
	}
	return true
}

// ContainsPoint reports whether the point p (one coordinate per
// dimension) lies inside the box.
func (b Box) ContainsPoint(p Point) bool {
	for i := range b {
		if !b[i].ContainsValue(p[i]) {
			return false
		}
	}
	return true
}

// Area returns the product of the extent lengths (the box's n-dimensional
// volume); 0 for an empty box.
func (b Box) Area() float64 {
	if b.Empty() {
		return 0
	}
	a := 1.0
	for _, iv := range b {
		a *= iv.Length()
	}
	return a
}

// Margin returns the sum of the extent lengths (the R*-tree "margin"
// heuristic); 0 for an empty box.
func (b Box) Margin() float64 {
	if b.Empty() {
		return 0
	}
	m := 0.0
	for _, iv := range b {
		m += iv.Length()
	}
	return m
}

// Enlargement returns how much b's area would grow if it were extended to
// also cover o (the Guttman insertion heuristic).
func (b Box) Enlargement(o Box) float64 {
	return b.CoverArea(o) - b.Area()
}

// CoverArea is b.Cover(o).Area() without building the cover.
func (b Box) CoverArea(o Box) float64 {
	if b.Empty() {
		return o.Area()
	}
	if o.Empty() {
		return b.Area()
	}
	a := 1.0
	for i := range b {
		a *= b[i].Cover(o[i]).Length()
	}
	return a
}

// CoverMargin is b.Cover(o).Margin() without building the cover.
func (b Box) CoverMargin(o Box) float64 {
	if b.Empty() {
		return o.Margin()
	}
	if o.Empty() {
		return b.Margin()
	}
	m := 0.0
	for i := range b {
		m += b[i].Cover(o[i]).Length()
	}
	return m
}

// Expand returns a copy of the box grown by delta on every side of every
// dimension.
func (b Box) Expand(delta float64) Box {
	r := make(Box, len(b))
	for i := range b {
		r[i] = b[i].Expand(delta)
	}
	return r
}

// Center returns the box's midpoint.
func (b Box) Center() Point {
	p := make(Point, len(b))
	for i := range b {
		p[i] = b[i].Mid()
	}
	return p
}

// Equal reports exact component-wise equality, treating all empty boxes
// as equal.
func (b Box) Equal(o Box) bool {
	if b.Empty() || o.Empty() {
		return b.Empty() && o.Empty()
	}
	if len(b) != len(o) {
		return false
	}
	for i := range b {
		if b[i] != o[i] {
			return false
		}
	}
	return true
}

// String renders the box as ⟨[lo,hi],…⟩ for debugging.
func (b Box) String() string {
	var sb strings.Builder
	sb.WriteString("⟨")
	for i, iv := range b {
		if i > 0 {
			sb.WriteString(", ")
		}
		if iv.Empty() {
			sb.WriteString("∅")
		} else {
			fmt.Fprintf(&sb, "[%g,%g]", iv.Lo, iv.Hi)
		}
	}
	sb.WriteString("⟩")
	return sb.String()
}

// Point is an n-dimensional location vector.
type Point []float64

// Clone returns a deep copy of the point.
func (p Point) Clone() Point {
	c := make(Point, len(p))
	copy(c, p)
	return c
}

// Add returns p + q.
func (p Point) Add(q Point) Point {
	r := make(Point, len(p))
	for i := range p {
		r[i] = p[i] + q[i]
	}
	return r
}

// Sub returns p - q.
func (p Point) Sub(q Point) Point {
	r := make(Point, len(p))
	for i := range p {
		r[i] = p[i] - q[i]
	}
	return r
}

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point {
	r := make(Point, len(p))
	for i := range p {
		r[i] = p[i] * s
	}
	return r
}

// Dist returns the Euclidean distance between two points.
func (p Point) Dist(q Point) float64 {
	s := 0.0
	for i := range p {
		d := p[i] - q[i]
		s += d * d
	}
	return sqrt(s)
}

// Lerp returns the point p + f·(q-p), the linear interpolation between p
// (f=0) and q (f=1).
func (p Point) Lerp(q Point, f float64) Point {
	r := make(Point, len(p))
	for i := range p {
		r[i] = p[i] + f*(q[i]-p[i])
	}
	return r
}
