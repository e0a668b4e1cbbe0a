package geom

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func box2(x0, x1, y0, y1 float64) Box {
	return Box{{x0, x1}, {y0, y1}}
}

func TestBoxEmpty(t *testing.T) {
	if box2(0, 1, 0, 1).Empty() {
		t.Error("unit box should not be empty")
	}
	if !box2(1, 0, 0, 1).Empty() {
		t.Error("box with empty extent should be empty")
	}
	if !NewBox(3).Empty() {
		t.Error("NewBox should be empty")
	}
}

func TestBoxIntersectCover(t *testing.T) {
	a := box2(0, 4, 0, 4)
	b := box2(2, 6, 3, 8)
	got := a.Intersect(b)
	want := box2(2, 4, 3, 4)
	if !got.Equal(want) {
		t.Errorf("intersect = %v, want %v", got, want)
	}
	cov := a.Cover(b)
	if !cov.Equal(box2(0, 6, 0, 8)) {
		t.Errorf("cover = %v", cov)
	}
	// Disjoint boxes intersect to empty.
	c := box2(10, 12, 10, 12)
	if !a.Intersect(c).Empty() {
		t.Error("disjoint intersect should be empty")
	}
	// Cover with empty returns the other.
	if !a.Cover(NewBox(2)).Equal(a) || !NewBox(2).Cover(a).Equal(a) {
		t.Error("cover with empty box broken")
	}
}

func TestBoxIntersectDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on dimension mismatch")
		}
	}()
	_ = box2(0, 1, 0, 1).Intersect(Box{{0, 1}})
}

func TestBoxContains(t *testing.T) {
	a := box2(0, 10, 0, 10)
	if !a.Contains(box2(1, 2, 3, 4)) || !a.Contains(a) {
		t.Error("containment failed")
	}
	if a.Contains(box2(-1, 2, 3, 4)) {
		t.Error("escaping box should not be contained")
	}
	if !a.Contains(NewBox(2)) {
		t.Error("every box contains the empty box")
	}
	if !a.ContainsPoint(Point{5, 5}) || a.ContainsPoint(Point{5, 11}) {
		t.Error("ContainsPoint wrong")
	}
}

func TestBoxAreaMarginEnlargement(t *testing.T) {
	a := box2(0, 2, 0, 3)
	if a.Area() != 6 || a.Margin() != 5 {
		t.Errorf("area/margin = %v/%v", a.Area(), a.Margin())
	}
	if NewBox(2).Area() != 0 || NewBox(2).Margin() != 0 {
		t.Error("empty box should have zero area and margin")
	}
	b := box2(4, 6, 0, 3)
	// Cover is [0,6]x[0,3] = 18; enlargement = 18-6 = 12.
	if got := a.Enlargement(b); got != 12 {
		t.Errorf("enlargement = %v, want 12", got)
	}
}

// CoverArea and CoverMargin are Cover(o).Area() and .Margin() without the
// box: the same values, bit for bit, for overlapping, disjoint, degenerate
// and empty operands alike.
func TestBoxCoverAreaMatchesCover(t *testing.T) {
	boxes := []Box{
		box2(0, 2, 0, 3), box2(4, 6, 0, 3), box2(1, 1, 1, 1), box2(-3.5, -0.25, 2, 2),
		box2(0.1, 0.3, 1e-9, 1e9), NewBox(2), {Interval{0, 1}, EmptyInterval()},
	}
	for _, a := range boxes {
		for _, b := range boxes {
			if got, want := a.CoverArea(b), a.Cover(b).Area(); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%v.CoverArea(%v) = %v, Cover().Area() = %v", a, b, got, want)
			}
			if got, want := a.CoverMargin(b), a.Cover(b).Margin(); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%v.CoverMargin(%v) = %v, Cover().Margin() = %v", a, b, got, want)
			}
		}
	}
}

func TestBoxCoverInPlace(t *testing.T) {
	a := NewBox(2)
	a.CoverInPlace(box2(1, 2, 1, 2))
	if !a.Equal(box2(1, 2, 1, 2)) {
		t.Errorf("cover-in-place into empty = %v", a)
	}
	a.CoverInPlace(box2(5, 6, -1, 0))
	if !a.Equal(box2(1, 6, -1, 2)) {
		t.Errorf("cover-in-place = %v", a)
	}
	before := a.Clone()
	a.CoverInPlace(NewBox(2))
	if !a.Equal(before) {
		t.Error("covering with empty should be a no-op")
	}
}

func TestBoxExpandCenterString(t *testing.T) {
	a := box2(0, 2, 4, 8)
	if !a.Expand(1).Equal(box2(-1, 3, 3, 9)) {
		t.Errorf("expand = %v", a.Expand(1))
	}
	c := a.Center()
	if c[0] != 1 || c[1] != 6 {
		t.Errorf("center = %v", c)
	}
	if s := a.String(); !strings.Contains(s, "[0,2]") {
		t.Errorf("string = %q", s)
	}
	if s := NewBox(1).String(); !strings.Contains(s, "∅") {
		t.Errorf("empty box string = %q", s)
	}
}

func randBox(r *rand.Rand, n int) Box {
	b := make(Box, n)
	for i := range b {
		b[i] = randInterval(r)
	}
	return b
}

// Property: box containment is consistent with point membership.
func TestBoxContainsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randBox(r, 3), randBox(r, 3)
		if a.Contains(b) {
			// Every corner-ish sample of b must be in a.
			for i := 0; i < 10; i++ {
				p := Point{
					b[0].Lo + r.Float64()*b[0].Length(),
					b[1].Lo + r.Float64()*b[1].Length(),
					b[2].Lo + r.Float64()*b[2].Length(),
				}
				if !b.Empty() && !a.ContainsPoint(p) {
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

// Property: intersect ⊆ both, cover ⊇ both, overlap ⇔ non-empty intersect.
func TestBoxLatticeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randBox(r, 2), randBox(r, 2)
		inter := a.Intersect(b)
		cov := a.Cover(b)
		return a.Contains(inter) && b.Contains(inter) &&
			cov.Contains(a) && cov.Contains(b) &&
			a.Overlaps(b) == !inter.Empty()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPointOps(t *testing.T) {
	p, q := Point{1, 2}, Point{4, 6}
	if d := p.Dist(q); d != 5 {
		t.Errorf("dist = %v, want 5", d)
	}
	if s := p.Add(q); s[0] != 5 || s[1] != 8 {
		t.Errorf("add = %v", s)
	}
	if s := q.Sub(p); s[0] != 3 || s[1] != 4 {
		t.Errorf("sub = %v", s)
	}
	if s := p.Scale(2); s[0] != 2 || s[1] != 4 {
		t.Errorf("scale = %v", s)
	}
	m := p.Lerp(q, 0.5)
	if m[0] != 2.5 || m[1] != 4 {
		t.Errorf("lerp = %v", m)
	}
	c := p.Clone()
	c[0] = 99
	if p[0] != 1 {
		t.Error("clone should not alias")
	}
}
