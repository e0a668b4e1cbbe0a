package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIntervalEmpty(t *testing.T) {
	cases := []struct {
		iv   Interval
		want bool
	}{
		{Interval{0, 1}, false},
		{Interval{1, 0}, true},
		{Interval{2, 2}, false},
		{EmptyInterval(), true},
		{UniverseInterval(), false},
		{IntervalOf(5), false},
	}
	for _, c := range cases {
		if got := c.iv.Empty(); got != c.want {
			t.Errorf("Empty(%v) = %v, want %v", c.iv, got, c.want)
		}
	}
}

func TestIntervalIntersect(t *testing.T) {
	cases := []struct {
		a, b, want Interval
	}{
		{Interval{0, 5}, Interval{3, 8}, Interval{3, 5}},
		{Interval{0, 5}, Interval{5, 8}, Interval{5, 5}},
		{Interval{0, 5}, Interval{6, 8}, Interval{6, 5}},
		{Interval{0, 10}, Interval{2, 3}, Interval{2, 3}},
	}
	for _, c := range cases {
		got := c.a.Intersect(c.b)
		if got.Empty() != c.want.Empty() || (!got.Empty() && got != c.want) {
			t.Errorf("%v ∩ %v = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestIntervalCover(t *testing.T) {
	a, b := Interval{0, 2}, Interval{5, 7}
	if got := a.Cover(b); got != (Interval{0, 7}) {
		t.Errorf("cover = %v", got)
	}
	if got := a.Cover(EmptyInterval()); got != a {
		t.Errorf("cover with empty = %v, want %v", got, a)
	}
	if got := EmptyInterval().Cover(b); got != b {
		t.Errorf("empty cover = %v, want %v", got, b)
	}
}

func TestIntervalContains(t *testing.T) {
	big := Interval{0, 10}
	if !big.Contains(Interval{2, 5}) || !big.Contains(big) {
		t.Error("containment of sub-interval failed")
	}
	if big.Contains(Interval{-1, 5}) || big.Contains(Interval{5, 11}) {
		t.Error("containment should fail for escaping intervals")
	}
	if !big.Contains(EmptyInterval()) {
		t.Error("everything contains the empty interval")
	}
	if !big.ContainsValue(0) || !big.ContainsValue(10) || big.ContainsValue(10.5) {
		t.Error("ContainsValue boundary behaviour wrong")
	}
}

func TestIntervalExpandLengthMid(t *testing.T) {
	iv := Interval{2, 6}
	if got := iv.Expand(1); got != (Interval{1, 7}) {
		t.Errorf("expand = %v", got)
	}
	if got := iv.Expand(-3); !got.Empty() {
		t.Errorf("over-shrunk interval should be empty, got %v", got)
	}
	if iv.Length() != 4 || iv.Mid() != 4 {
		t.Errorf("length/mid = %v/%v", iv.Length(), iv.Mid())
	}
	if EmptyInterval().Length() != 0 {
		t.Error("empty interval length should be 0")
	}
}

func randInterval(r *rand.Rand) Interval {
	a, b := r.Float64()*20-10, r.Float64()*20-10
	if r.Intn(4) == 0 {
		return Interval{a, a} // degenerate point interval
	}
	if a > b {
		a, b = b, a
	}
	return Interval{a, b}
}

// Property: intersection is the greatest lower bound — it is contained in
// both operands, and any value in both operands is in the intersection.
func TestIntervalIntersectProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randInterval(r), randInterval(r)
		got := a.Intersect(b)
		if !a.Contains(got) || !b.Contains(got) {
			return false
		}
		for i := 0; i < 20; i++ {
			v := r.Float64()*24 - 12
			inBoth := a.ContainsValue(v) && b.ContainsValue(v)
			if inBoth != got.ContainsValue(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: cover contains both operands and is the smallest such interval
// (its endpoints are drawn from the operands).
func TestIntervalCoverProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randInterval(r), randInterval(r)
		c := a.Cover(b)
		if !c.Contains(a) || !c.Contains(b) {
			return false
		}
		loOK := c.Lo == a.Lo || c.Lo == b.Lo
		hiOK := c.Hi == a.Hi || c.Hi == b.Hi
		return loOK && hiOK
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Overlaps is symmetric and agrees with non-empty intersection.
func TestIntervalOverlapsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randInterval(r), randInterval(r)
		return a.Overlaps(b) == b.Overlaps(a) &&
			a.Overlaps(b) == !a.Intersect(b).Empty()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUniverseInterval(t *testing.T) {
	u := UniverseInterval()
	for _, v := range []float64{0, 1e300, -1e300, math.MaxFloat64} {
		if !u.ContainsValue(v) {
			t.Errorf("universe should contain %g", v)
		}
	}
}
