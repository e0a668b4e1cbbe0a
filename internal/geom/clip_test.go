package geom

import (
	"math"
	"math/rand"
	"testing"
)

// checkClipMisses holds ClipMisses to its contract on one stored segment
// (float32 end points and times, finite) and NaN-free borders: when it
// reports a miss, ClipLine is empty on the whole validity and at both of
// its instants. On ordered borders BeyondGap and ClipMargin, the leaf
// scan's form of the test, must give its answer. It returns ClipMisses'
// answer.
func checkClipMisses(t *testing.T, t0, x0, t1, x1, lo, hi float64) bool {
	t.Helper()
	if !finite32(t0) || !finite32(x0) || !finite32(t1) || !finite32(x1) || hasNaN(lo, hi) {
		return false
	}
	t0, x0, t1, x1 = float64(float32(t0)), float64(float32(x0)), float64(float32(t1)), float64(float32(x1))
	misses := ClipMisses(t0, x0, t1, x1, lo, hi)
	if gap, w := BeyondGap(x0, x1, lo, hi); lo <= hi && (gap > 0 && ClipMargin(t0, t1, gap, w)) != misses {
		t.Fatalf("ClipMisses(%v, %v, %v, %v, %v, %v) = %v, but BeyondGap gives gap %v, w %v", t0, x0, t1, x1, lo, hi, misses, gap, w)
	}
	if !misses {
		return false
	}
	for _, w := range []Interval{{t0, t1}, {t0, t0}, {t1, t1}} {
		if got := ClipLine(t0, x0, t1, x1, lo, hi, w); !got.Empty() {
			t.Fatalf("ClipMisses(%v, %v, %v, %v, %v, %v) but ClipLine in %v = %v (%x %x)", t0, x0, t1, x1, lo, hi, w,
				got, math.Float64bits(got.Lo), math.Float64bits(got.Hi))
		}
	}
	return true
}

// nudge moves x n float64 ulps towards +Inf (up) or -Inf.
func nudge(x float64, n int, up bool) float64 {
	dir := math.Inf(-1)
	if up {
		dir = math.Inf(1)
	}
	for ; n > 0; n-- {
		x = math.Nextafter(x, dir)
	}
	return x
}

// border deals a query border from sel: v as it came, ±Inf, ±1e308, or
// one of the end points nudged 1–4 float64 ulps either way, the borders
// ClipLine's rounding is closest to.
func border(sel uint8, v, x0, x1 float64) float64 {
	sign := float64(int(sel>>2)%2*2 - 1)
	switch sel % 4 {
	case 0:
		return v
	case 1:
		return math.Inf(int(sign))
	case 2:
		return sign * 1e308
	}
	x := x0
	if sel&8 != 0 {
		x = x1
	}
	return nudge(float64(float32(x)), 1+int(sel>>4)%4, sel&4 != 0)
}

func TestClipMisses(t *testing.T) {
	below, above := math.Nextafter(1, 0), math.Nextafter(1, 2)
	for _, c := range []struct {
		name                   string
		t0, x0, t1, x1, lo, hi float64
		want                   bool
	}{
		{"far below", 0, 1, 10, 2, 5, 6, true},
		{"far above, falling", 0, 9, 10, 7, 5, 6, true},
		{"stationary above", 0, 7, 10, 7, 5, 6, true},
		{"instant below", 3, 1, 3, 4, 5, 6, true},
		{"instant, one end inside", 3, 5.5, 3, 9, 5, 6, false},
		{"crosses", 0, 1, 10, 9, 5, 6, false},
		{"touches the border", 0, 1, 10, 5, 5, 6, false},
		{"inverted validity", 10, 1, 0, 2, 5, 6, false},
		{"unbounded", 0, 1, 10, 2, math.Inf(-1), math.Inf(1), false},
		{"empty range", 0, 1, 10, 2, math.Inf(1), math.Inf(-1), true},
		{"NaN border", 0, 1, 10, 2, nan, 6, false},
		{"infinite time", math.Inf(-1), 1, 10, 2, 5, 6, false},
		{"infinite end point", 0, math.Inf(1), 10, 7, 5, 6, false},
		// The degenerate survivor: x0 one ulp above hi. At t0 = 4 the
		// crossing 4 − 2⁻⁵³ rounds back to t0, so ClipLine reports [4, 4]
		// for a segment that never touches the range, and the guard must
		// leave that answer alone.
		{"one ulp above hi", 4, 1, 5, 2, 0, below, false},
		{"one ulp below lo", 4, 1, 5, 0, above, 2, false},
	} {
		if got := ClipMisses(c.t0, c.x0, c.t1, c.x1, c.lo, c.hi); got != c.want {
			t.Errorf("%s: ClipMisses = %v, want %v", c.name, got, c.want)
		}
	}
	if got := ClipLine(4, 1, 5, 2, 0, below, Interval{4, 5}); got != (Interval{4, 4}) {
		t.Errorf("one ulp above hi: ClipLine = %v, want [4, 4]: the degenerate survivor this test pins", got)
	}

	// Random segments against borders near their end points: the guard
	// must fire often and never on a non-empty clip.
	r := rand.New(rand.NewSource(29))
	fired := 0
	for i := 0; i < 200000; i++ {
		t0 := float64(float32(r.NormFloat64() * 100))
		t1 := t0 + float64(float32(r.ExpFloat64()))
		x0, x1 := float64(float32(r.NormFloat64()*50)), float64(float32(r.NormFloat64()*50))
		lo := border(uint8(r.Intn(256)), r.NormFloat64()*50, x0, x1)
		hi := border(uint8(r.Intn(256)), lo+r.ExpFloat64()*20, x0, x1)
		if checkClipMisses(t, t0, x0, t1, x1, lo, hi) {
			fired++
		}
	}
	if fired < 20000 {
		t.Fatalf("the guard fired %d times in 200000: the cases miss the point", fired)
	}
}

// FuzzClipMisses: for any stored segment and any NaN-free borders — ±Inf,
// ±1e308, borders nudged a few ulps off an end point — a miss ClipMisses
// reports is one ClipLine agrees is empty.
func FuzzClipMisses(f *testing.F) {
	f.Add(float32(0), float32(1), float32(10), float32(2), 5.0, 6.0, uint8(0), uint8(0))
	f.Add(float32(4), float32(1), float32(5), float32(2), 0.0, 0.0, uint8(0), uint8(0x07)) // hi one ulp below x0
	f.Add(float32(3), float32(1), float32(3), float32(4), 0.0, 0.0, uint8(0x0f), uint8(0x1b))
	f.Add(float32(1e-45), float32(-3e38), float32(3e38), float32(3e38), 0.0, 0.0, uint8(2), uint8(6))
	f.Add(float32(-1), float32(0.1), float32(1), float32(0.1), 0.0, 0.0, uint8(0x33), uint8(0x3f))
	f.Fuzz(func(t *testing.T, t0, x0, t1, x1 float32, lo, hi float64, loSel, hiSel uint8) {
		a, b := float64(x0), float64(x1)
		checkClipMisses(t, float64(t0), a, float64(t1), b, border(loSel, lo, a, b), border(hiSel, hi, a, b))
	})
}
