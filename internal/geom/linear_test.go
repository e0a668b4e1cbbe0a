package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// at evaluates the linear form at time t.
func at(l Linear, t float64) float64 { return l.A + l.B*(t-l.T0) }

func TestLinearBetween(t *testing.T) {
	l := LinearBetween(0, 10, 5, 20)
	if at(l, 0) != 10 || at(l, 5) != 20 || at(l, 2.5) != 15 {
		t.Error("interpolation wrong")
	}
	// Degenerate: zero-length time span yields a constant.
	c := LinearBetween(3, 7, 3, 99)
	if c.B != 0 || at(c, 100) != 7 {
		t.Errorf("degenerate form = %+v", c)
	}
}

func TestLinearSub(t *testing.T) {
	a := Linear{A: 5, B: 2, T0: 0}
	b := Linear{A: 1, B: -1, T0: 3} // b(t) = 1 - (t-3) = 4 - t
	d := a.Sub(b)
	for _, tt := range []float64{-2, 0, 3, 7} {
		want := at(a, tt) - at(b, tt)
		if got := at(d, tt); math.Abs(got-want) > 1e-12 {
			t.Errorf("sub at %v = %v, want %v", tt, got, want)
		}
	}
}

func TestSolveLECases(t *testing.T) {
	w := Interval{0, 10}
	// Increasing border crosses threshold at t=4.
	up := Linear{A: 0, B: 1, T0: 0}
	if got := up.SolveLE(4, w); got != (Interval{0, 4}) {
		t.Errorf("increasing SolveLE = %v", got)
	}
	// Decreasing border crosses threshold at t=6.
	down := Linear{A: 10, B: -1, T0: 0}
	if got := down.SolveLE(4, w); got != (Interval{6, 10}) {
		t.Errorf("decreasing SolveLE = %v", got)
	}
	// Constant below: whole window. Constant above: empty.
	if got := (Linear{A: 3}).SolveLE(4, w); got != w {
		t.Errorf("constant-below = %v", got)
	}
	if got := (Linear{A: 5}).SolveLE(4, w); !got.Empty() {
		t.Errorf("constant-above = %v", got)
	}
	// Empty window in, empty out.
	if got := up.SolveLE(4, EmptyInterval()); !got.Empty() {
		t.Error("empty window should yield empty")
	}
}

func TestSolveGEAndBetween(t *testing.T) {
	w := Interval{0, 10}
	up := Linear{A: 0, B: 2, T0: 0} // reaches 4 at t=2, 12 at t=6
	if got := up.SolveGE(4, w); got != (Interval{2, 10}) {
		t.Errorf("SolveGE = %v", got)
	}
	if got := up.SolveBetween(4, 12, w); got != (Interval{2, 6}) {
		t.Errorf("SolveBetween = %v", got)
	}
}

// Property: SolveLE returns exactly the times in the window where the
// inequality holds (up to fp tolerance at the boundary).
func TestSolveLEProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		l := Linear{A: r.Float64()*10 - 5, B: r.Float64()*4 - 2, T0: r.Float64() * 5}
		c := r.Float64()*10 - 5
		w := Interval{0, 10}
		sol := l.SolveLE(c, w)
		const eps = 1e-9
		for i := 0; i < 40; i++ {
			tt := r.Float64() * 10
			holds := at(l, tt) <= c
			inSol := sol.ContainsValue(tt)
			if holds != inSol {
				// Allow disagreement only within eps of the crossing.
				if l.B != 0 {
					cross := l.T0 + (c-l.A)/l.B
					if math.Abs(tt-cross) < eps {
						continue
					}
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

// Property: SolveBetween(lo,hi) == SolveLE(hi) ∩ SolveGE(lo).
func TestSolveBetweenProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		l := Linear{A: r.Float64()*10 - 5, B: r.Float64()*4 - 2, T0: 0}
		lo := r.Float64()*6 - 3
		hi := lo + r.Float64()*4
		w := Interval{0, 10}
		a := l.SolveBetween(lo, hi, w)
		b := l.SolveLE(hi, w).Intersect(l.SolveGE(lo, w))
		if a.Empty() != b.Empty() {
			return false
		}
		return a.Empty() || a == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
