package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dynq/internal/rtree"
)

func TestBuildIndexScaled(t *testing.T) {
	tree, n, err := BuildIndex(rtree.DefaultConfig(), 0.02, 1) // 100 objects
	if err != nil {
		t.Fatal(err)
	}
	if n < 8000 || n > 12000 {
		t.Errorf("segment count = %d, want ≈10000 (100 objects × ~100 updates)", n)
	}
	if tree.Size() != n {
		t.Errorf("tree size %d != generated %d", tree.Size(), n)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := BuildIndex(rtree.DefaultConfig(), 0, 1); err == nil {
		t.Error("zero scale should be rejected")
	}
	if _, _, err := BuildIndex(rtree.DefaultConfig(), 1.5, 1); err == nil {
		t.Error("over-unity scale should be rejected")
	}
}

func TestQueryConfigDerived(t *testing.T) {
	q := PaperQuery(0.9, 8)
	if math.Abs(q.Step()-0.8) > 1e-12 {
		t.Errorf("step = %g, want 0.8", q.Step())
	}
	// The paper's example: 0% overlap with an 8×8 window means the window
	// advances a full width per frame.
	q0 := PaperQuery(0, 8)
	if q0.Step() != 8 {
		t.Errorf("0%% overlap step = %g", q0.Step())
	}
}

func TestGenerateValidation(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	bad := []QueryConfig{
		{Range: 0, Overlap: 0.5, Frames: 10, WorldSize: 100, Duration: 100},
		{Range: 200, Overlap: 0.5, Frames: 10, WorldSize: 100, Duration: 100},
		{Range: 8, Overlap: -0.1, Frames: 10, WorldSize: 100, Duration: 100},
		{Range: 8, Overlap: 1.0, Frames: 10, WorldSize: 100, Duration: 100},
		{Range: 8, Overlap: 0.5, Frames: 0, WorldSize: 100, Duration: 100},
	}
	for _, q := range bad {
		if _, err := Generate(q, r); err == nil {
			t.Errorf("config %+v should be rejected", q)
		}
	}
}

func TestGenerateShape(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	q := PaperQuery(0.5, 8)
	g, err := Generate(q, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Windows) != q.Frames+1 || len(g.Times) != q.Frames+1 {
		t.Fatalf("got %d windows/%d times, want %d", len(g.Windows), len(g.Times), q.Frames+1)
	}
	for i, w := range g.Windows {
		if math.Abs(w[0].Length()-8) > 1e-9 || math.Abs(w[1].Length()-8) > 1e-9 {
			t.Fatalf("window %d is %gx%g", i, w[0].Length(), w[1].Length())
		}
		if w[0].Lo < 0 || w[0].Hi > 100 || w[1].Lo < 0 || w[1].Hi > 100 {
			t.Fatalf("window %d leaves the world: %v", i, w)
		}
		if math.Abs(g.Times[i].Length()-FrameDt) > 1e-9 {
			t.Fatalf("frame %d duration = %g", i, g.Times[i].Length())
		}
		if i > 0 && math.Abs(g.Times[i].Lo-g.Times[i-1].Hi) > 1e-9 {
			t.Fatalf("frames %d-%d not contiguous", i-1, i)
		}
	}
	// The trajectory must cover every frame's time interval.
	span := g.Traj.TimeSpan()
	if span.Lo > g.Times[0].Lo || span.Hi < g.Times[len(g.Times)-1].Hi {
		t.Errorf("trajectory span %v does not cover frames [%g,%g]",
			span, g.Times[0].Lo, g.Times[len(g.Times)-1].Hi)
	}
}

// The central consistency requirement: the PDQ trajectory interpolates to
// exactly the per-frame windows that the naive/NPDQ evaluators use, so
// all three strategies answer the same dynamic query.
func TestGenerateTrajectoryMatchesWindows(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q := PaperQuery(Overlaps[r.Intn(len(Overlaps))], Ranges[r.Intn(len(Ranges))])
		g, err := Generate(q, r)
		if err != nil {
			return false
		}
		for i, w := range g.Windows {
			got := g.Traj.WindowAt(g.Times[i].Lo)
			for d := 0; d < 2; d++ {
				if math.Abs(got[d].Lo-w[d].Lo) > 1e-6 || math.Abs(got[d].Hi-w[d].Hi) > 1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Consecutive windows overlap by exactly the configured fraction (before
// any border reflection, overlap is 1 - step/range along one axis).
func TestGenerateOverlapFraction(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, ov := range Overlaps {
		q := PaperQuery(ov, 8)
		g, err := Generate(q, r)
		if err != nil {
			t.Fatal(err)
		}
		violations := 0
		for i := 1; i < len(g.Windows); i++ {
			inter := g.Windows[i].Intersect(g.Windows[i-1])
			frac := 0.0
			if !inter.Empty() {
				frac = inter.Area() / g.Windows[i].Area()
			}
			if math.Abs(frac-ov) > 1e-6 {
				violations++
			}
		}
		// Reflections at the border can change the instantaneous overlap
		// for one frame; they are rare.
		if violations > len(g.Windows)/10 {
			t.Errorf("overlap %g: %d/%d frames off target", ov, violations, len(g.Windows))
		}
	}
}

func TestPaperSweepConstants(t *testing.T) {
	if len(Overlaps) != 6 || Overlaps[0] != 0 || Overlaps[5] != 0.9999 {
		t.Errorf("overlap sweep = %v", Overlaps)
	}
	if len(Ranges) != 3 || Ranges[0] != 8 || Ranges[2] != 20 {
		t.Errorf("range sweep = %v", Ranges)
	}
	if FrameDt != 0.1 || SubsequentFrames != 50 {
		t.Error("frame constants drifted from the paper")
	}
}

func TestGenerateDeterministicPerSeed(t *testing.T) {
	q := PaperQuery(0.8, 14)
	a, err := Generate(q, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(q, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Windows {
		if !a.Windows[i].Equal(b.Windows[i]) {
			t.Fatalf("window %d differs between identical seeds", i)
		}
	}
}
