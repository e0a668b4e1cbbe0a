package motion

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
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
