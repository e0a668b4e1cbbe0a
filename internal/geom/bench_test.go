package geom

import (
	"math/rand"
	"testing"
)

func BenchmarkBoxOverlaps(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	boxes := make([]Box, 256)
	for i := range boxes {
		boxes[i] = randBox(r, 4)
	}
	q := randBox(r, 4)
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		if q.Overlaps(boxes[i%len(boxes)]) {
			hits++
		}
	}
	_ = hits
}

func BenchmarkSegmentOverlapTimeInBox(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	segs := make([]Segment, 256)
	for i := range segs {
		segs[i] = Segment{
			T:     Interval{Lo: r.Float64() * 50, Hi: 50 + r.Float64()*50},
			Start: Point{r.Float64() * 100, r.Float64() * 100},
			End:   Point{r.Float64() * 100, r.Float64() * 100},
		}
	}
	q := Box{{Lo: 30, Hi: 50}, {Lo: 30, Hi: 50}, {Lo: 40, Hi: 60}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = segs[i%len(segs)].OverlapTimeInBox(q)
	}
}

func BenchmarkSolveBetween(b *testing.B) {
	l := Linear{A: 3, B: 0.7, T0: 1}
	w := Interval{Lo: 0, Hi: 100}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = l.SolveBetween(10, 40, w)
	}
}

// BenchmarkClipMisses is the guard for one axis of a leaf entry, the
// division-free counterpart of BenchmarkSolveBetween: segments like a
// fly-through leaf's against a window most of them miss.
func BenchmarkClipMisses(b *testing.B) {
	r := rand.New(rand.NewSource(4))
	segs := make([][4]float64, 256)
	for i := range segs {
		t0, x0 := float64(float32(49+r.Float64())), float64(float32(30+r.Float64()*30))
		segs[i] = [4]float64{t0, x0, float64(float32(t0 + 1.5)), float64(float32(x0 + r.Float64()*2 - 1))}
	}
	b.ResetTimer()
	misses := 0
	for i := 0; i < b.N; i++ {
		s := &segs[i%len(segs)]
		if ClipMisses(s[0], s[1], s[2], s[3], 40, 48) {
			misses++
		}
	}
	if misses == 0 {
		b.Fatal("no segment misses the window")
	}
}

func BenchmarkIntervalSetAdd(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	ivs := make([]Interval, 1024)
	for i := range ivs {
		ivs[i] = randInterval(r)
	}
	b.ResetTimer()
	var s IntervalSet
	for i := 0; i < b.N; i++ {
		if i%64 == 0 {
			s.Reset()
		}
		s.Add(ivs[i%len(ivs)])
	}
}
