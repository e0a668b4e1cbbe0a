package motion

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"dynq/internal/geom"
)

func smallConfig() SimConfig {
	return SimConfig{
		Objects:    20,
		Dims:       2,
		WorldSize:  100,
		Duration:   50,
		Speed:      1,
		SpeedStd:   0.2,
		UpdateMean: 1,
		UpdateStd:  0.25,
		Seed:       42,
	}
}

func TestGenerateSegmentsInvariants(t *testing.T) {
	cfg := smallConfig()
	segs, err := GenerateSegments(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 {
		t.Fatal("no segments generated")
	}
	perObject := map[uint64][]TimedSegment{}
	for _, s := range segs {
		perObject[s.ObjID] = append(perObject[s.ObjID], s)
		// Inside the world.
		for i := 0; i < cfg.Dims; i++ {
			if s.Seg.Start[i] < 0 || s.Seg.Start[i] > cfg.WorldSize ||
				s.Seg.End[i] < 0 || s.Seg.End[i] > cfg.WorldSize {
				t.Fatalf("segment leaves the world: %+v", s)
			}
		}
		if s.Seg.T.Empty() || s.Seg.T.Length() <= 0 {
			t.Fatalf("degenerate validity interval: %+v", s.Seg.T)
		}
	}
	if len(perObject) != cfg.Objects {
		t.Fatalf("got %d objects, want %d", len(perObject), cfg.Objects)
	}
	for obj, list := range perObject {
		// Segments tile [0, Duration] contiguously and join continuously.
		if list[0].Seg.T.Lo != 0 {
			t.Fatalf("object %d starts at %g", obj, list[0].Seg.T.Lo)
		}
		last := list[len(list)-1]
		if math.Abs(last.Seg.T.Hi-cfg.Duration) > 1e-9 {
			t.Fatalf("object %d ends at %g, want %g", obj, last.Seg.T.Hi, cfg.Duration)
		}
		for i := 1; i < len(list); i++ {
			if list[i].Seg.T.Lo != list[i-1].Seg.T.Hi {
				t.Fatalf("object %d has a time gap at segment %d", obj, i)
			}
			for d := 0; d < cfg.Dims; d++ {
				if list[i].Seg.Start[d] != list[i-1].Seg.End[d] {
					t.Fatalf("object %d trajectory is discontinuous at segment %d", obj, i)
				}
			}
		}
	}
}

func TestGenerateSegmentsDeterministic(t *testing.T) {
	a, err := GenerateSegments(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateSegments(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ObjID != b[i].ObjID || a[i].Seg.T != b[i].Seg.T || a[i].Seg.Start[0] != b[i].Seg.Start[0] {
			t.Fatalf("segment %d differs between identical seeds", i)
		}
	}
	cfg := smallConfig()
	cfg.Seed = 43
	c, err := GenerateSegments(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == len(c) && a[0].Seg.Start[0] == c[0].Seg.Start[0] {
		t.Error("different seeds should give different workloads")
	}
}

func TestGenerateSegmentsValidation(t *testing.T) {
	for _, bad := range []SimConfig{
		{Objects: 0, Dims: 2, WorldSize: 1, Duration: 1, UpdateMean: 1},
		{Objects: 1, Dims: 0, WorldSize: 1, Duration: 1, UpdateMean: 1},
		{Objects: 1, Dims: 2, WorldSize: 0, Duration: 1, UpdateMean: 1},
		{Objects: 1, Dims: 2, WorldSize: 1, Duration: 0, UpdateMean: 1},
		{Objects: 1, Dims: 2, WorldSize: 1, Duration: 1, UpdateMean: 0},
	} {
		if _, err := GenerateSegments(bad); err == nil {
			t.Errorf("config %+v should be rejected", bad)
		}
	}
}

func TestPaperConfigScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full paper workload skipped in -short mode")
	}
	segs, err := GenerateSegments(PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Section 5 reports 502,504 segments for this configuration; our RNG
	// differs but the scale must match (~100 updates per object ⇒ ~500k).
	if len(segs) < 450000 || len(segs) > 560000 {
		t.Errorf("paper workload yields %d segments, want ≈502k", len(segs))
	}
}

func TestStreamOrdering(t *testing.T) {
	s, err := NewStream(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, err := GenerateSegments(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].Seg.T.Lo != want[j].Seg.T.Lo {
			return want[i].Seg.T.Lo < want[j].Seg.T.Lo
		}
		return want[i].ObjID < want[j].ObjID
	})
	total := s.Remaining()
	if total == 0 {
		t.Fatal("empty stream")
	}
	prev := math.Inf(-1)
	count := 0
	for {
		ts, ok := s.Next()
		if !ok {
			break
		}
		if ts.Seg.T.Lo < prev {
			t.Fatalf("stream out of order: %g after %g", ts.Seg.T.Lo, prev)
		}
		if count < len(want) && !reflect.DeepEqual(ts, want[count]) {
			t.Fatalf("stream item %d = %+v, want %+v (GenerateSegments by start time, then object)", count, ts, want[count])
		}
		prev = ts.Seg.T.Lo
		count++
	}
	if count != total || count != len(want) {
		t.Errorf("drained %d segments, Remaining said %d, GenerateSegments made %d", count, total, len(want))
	}
}

func TestClampReflect(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{-3, 3},
		{105, 95},
		{50, 50},
		{0, 0},
		{100, 100},
		{-150, 50},
	}
	for _, c := range cases {
		if got := clampReflect(c.in, 100); got != c.want {
			t.Errorf("clampReflect(%g) = %g, want %g", c.in, got, c.want)
		}
	}
}

// Property: clampReflect always lands in [0, size].
func TestClampReflectProperty(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e6 {
			return true
		}
		got := clampReflect(x, 100)
		return got >= 0 && got <= 100
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTrackerNoUpdatesWhileOnCourse(t *testing.T) {
	tr := NewTracker(0.5)
	// First observation initializes (zero velocity); a stationary object
	// never deviates.
	for i := 0; i <= 10; i++ {
		seg, err := tr.Observe(float64(i), geom.Point{5, 5})
		if err != nil {
			t.Fatal(err)
		}
		if seg != nil {
			t.Fatalf("stationary object produced an update at t=%d", i)
		}
	}
	// No update fired, but the pending (stationary) motion is still
	// unreported: flushing closes it so it can be indexed.
	tail := tr.Flush()
	if tail == nil || tail.T != (geom.Interval{Lo: 0, Hi: 10}) || tail.Start[0] != 5 || tail.End[0] != 5 {
		t.Errorf("flush = %+v, want stationary segment [0,10]", tail)
	}
	if tr.Flush() != nil {
		t.Error("second flush should be nil")
	}
	if tr.Threshold() != 0.5 {
		t.Error("threshold accessor wrong")
	}
}

func TestTrackerEmitsOnDeviation(t *testing.T) {
	tr := NewTracker(0.5)
	tr.Observe(0, geom.Point{0, 0})
	// Object moves at speed 1 along x; dead reckoning predicts standing
	// still, so deviation crosses 0.5 after half a time unit.
	seg, err := tr.Observe(0.4, geom.Point{0.4, 0})
	if err != nil || seg != nil {
		t.Fatalf("deviation 0.4 should not trigger (seg=%v err=%v)", seg, err)
	}
	seg, err = tr.Observe(0.8, geom.Point{0.8, 0})
	if err != nil {
		t.Fatal(err)
	}
	if seg == nil {
		t.Fatal("deviation 0.8 should trigger an update")
	}
	if seg.T != (geom.Interval{Lo: 0, Hi: 0.8}) || seg.End[0] != 0.8 {
		t.Errorf("closed segment = %+v", seg)
	}
	// After the update the tracker dead-reckons with velocity 1: staying
	// on course produces no further updates.
	for _, tt := range []float64{1.2, 1.6, 2.0} {
		seg, err := tr.Observe(tt, geom.Point{tt, 0})
		if err != nil {
			t.Fatal(err)
		}
		if seg != nil {
			t.Fatalf("on-course motion triggered an update at t=%g", tt)
		}
	}
	// A turn triggers again.
	seg, err = tr.Observe(3.0, geom.Point{3.0, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if seg == nil {
		t.Fatal("turning should trigger an update")
	}
	// Flush returns the tail.
	tr.Observe(3.5, geom.Point{3.2, 1.2})
	tail := tr.Flush()
	if tail == nil || tail.T.Lo != 3.0 || tail.T.Hi != 3.5 {
		t.Errorf("flush = %+v", tail)
	}
	// Second flush is empty.
	if tr.Flush() != nil {
		t.Error("double flush should be nil")
	}
}

func TestTrackerRejectsTimeTravel(t *testing.T) {
	tr := NewTracker(1)
	tr.Observe(5, geom.Point{0, 0})
	if _, err := tr.Observe(5, geom.Point{1, 1}); err == nil {
		t.Error("equal timestamps should be rejected")
	}
	if _, err := tr.Observe(4, geom.Point{1, 1}); err == nil {
		t.Error("decreasing timestamps should be rejected")
	}
}

// Property: a tracker following any smooth trajectory reconstructs it
// within threshold + one observation step of error at segment joins.
func TestTrackerBoundedErrorProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := newRand(seed)
		tr := NewTracker(0.5)
		// Piecewise-linear true trajectory with occasional turns.
		pos := geom.Point{r.Float64() * 10, r.Float64() * 10}
		vel := geom.Point{r.Float64()*2 - 1, r.Float64()*2 - 1}
		var segs []*geom.Segment
		dt := 0.05
		for step := 0; step < 400; step++ {
			tNow := float64(step) * dt
			if r.Intn(50) == 0 {
				vel = geom.Point{r.Float64()*2 - 1, r.Float64()*2 - 1}
			}
			pos = pos.Add(vel.Scale(dt))
			seg, err := tr.Observe(tNow, pos)
			if err != nil {
				return false
			}
			if seg != nil {
				segs = append(segs, seg)
			}
		}
		if tail := tr.Flush(); tail != nil {
			segs = append(segs, tail)
		}
		// Segments must be contiguous in time.
		for i := 1; i < len(segs); i++ {
			if segs[i].T.Lo != segs[i-1].T.Hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
