package bench

import (
	"testing"

	"dynq/internal/workload"
)

func tinyConfig() Config {
	return Config{Scale: 0.05, Trajectories: 5, Seed: 1}
}

func TestSpecsCoverEveryFigure(t *testing.T) {
	specs := Specs()
	if len(specs) != 8 {
		t.Fatalf("got %d specs, want 8 (figures 6-13)", len(specs))
	}
	seen := map[Figure]bool{}
	for _, s := range specs {
		if s.Fig < 6 || s.Fig > 13 {
			t.Errorf("unexpected figure %d", s.Fig)
		}
		if seen[s.Fig] {
			t.Errorf("figure %d duplicated", s.Fig)
		}
		seen[s.Fig] = true
		if s.Metric != "io" && s.Metric != "cpu" {
			t.Errorf("figure %d metric %q", s.Fig, s.Metric)
		}
		if len(s.Strategies) == 0 || len(s.Overlaps) == 0 || len(s.Ranges) == 0 {
			t.Errorf("figure %d has empty dimensions", s.Fig)
		}
	}
	if _, err := SpecFor(6); err != nil {
		t.Error(err)
	}
	if _, err := SpecFor(5); err == nil {
		t.Error("figure 5 should not resolve")
	}
}

func TestRunCellShapes(t *testing.T) {
	ix, err := BuildIndex(tinyConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := ix.RunCell(StratNaive, 0.9, 8)
	if err != nil {
		t.Fatal(err)
	}
	pdq, err := ix.RunCell(StratPDQ, 0.9, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Naive subsequent ≈ naive first (flat in frame index).
	if naive.Subseq.Reads() < naive.First.Reads()*0.5 || naive.Subseq.Reads() > naive.First.Reads()*2 {
		t.Errorf("naive subsequent (%.1f) should be near first (%.1f)",
			naive.Subseq.Reads(), naive.First.Reads())
	}
	// PDQ subsequent must be far below naive subsequent at 90% overlap.
	if pdq.Subseq.Reads() >= naive.Subseq.Reads() {
		t.Errorf("pdq subsequent reads %.2f not below naive %.2f",
			pdq.Subseq.Reads(), naive.Subseq.Reads())
	}
	if pdq.Subseq.DistanceComps >= naive.Subseq.DistanceComps {
		t.Errorf("pdq subsequent cpu %.1f not below naive %.1f",
			pdq.Subseq.DistanceComps, naive.Subseq.DistanceComps)
	}
	if _, err := ix.RunCell("bogus", 0.5, 8); err == nil {
		t.Error("unknown strategy should error")
	}
}

// runFigure measures every cell of a figure on a fresh tiny index.
func runFigure(t *testing.T, fig Figure) ([]Cell, *Index) {
	t.Helper()
	spec, err := SpecFor(fig)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildIndex(tinyConfig(), spec.DualTime)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := RunFigureOn(ix, spec)
	if err != nil {
		t.Fatal(err)
	}
	return cells, ix
}

func TestRunFigureMonotoneShapes(t *testing.T) {
	cells, ix := runFigure(t, 6)
	if ix.Segments == 0 {
		t.Fatal("index empty")
	}
	byStrat := map[Strategy][]Cell{}
	for _, c := range cells {
		byStrat[c.Strategy] = append(byStrat[c.Strategy], c)
	}
	if len(byStrat[StratNaive]) != len(workload.Overlaps) || len(byStrat[StratPDQ]) != len(workload.Overlaps) {
		t.Fatalf("cell counts: %d naive, %d pdq", len(byStrat[StratNaive]), len(byStrat[StratPDQ]))
	}
	// PDQ subsequent cost decreases (weakly) from 0% to 99.99% overlap,
	// and PDQ ≤ naive at every overlap.
	pdq := byStrat[StratPDQ]
	naive := byStrat[StratNaive]
	if pdq[len(pdq)-1].Subseq.Reads() > pdq[0].Subseq.Reads() {
		t.Errorf("pdq subsequent reads should fall with overlap: %.2f at 0%%, %.2f at 99.99%%",
			pdq[0].Subseq.Reads(), pdq[len(pdq)-1].Subseq.Reads())
	}
	for i := range pdq {
		if pdq[i].Subseq.Reads() > naive[i].Subseq.Reads() {
			t.Errorf("overlap %.2f: pdq %.2f > naive %.2f",
				pdq[i].Overlap, pdq[i].Subseq.Reads(), naive[i].Subseq.Reads())
		}
	}
}

func TestRunFigureQuerySizeShape(t *testing.T) {
	cells, _ := runFigure(t, 12)
	// At fixed overlap, bigger ranges cost more I/O (Figures 8/12).
	byRange := map[float64]float64{}
	for _, c := range cells {
		if c.Overlap == 0.9 {
			byRange[c.Range] = c.Subseq.Reads()
		}
	}
	if !(byRange[8] <= byRange[14] && byRange[14] <= byRange[20]) {
		t.Errorf("subsequent reads should grow with range: 8→%.2f 14→%.2f 20→%.2f",
			byRange[8], byRange[14], byRange[20])
	}
}
