package compare

import (
	"path/filepath"
	"strings"
	"testing"

	"dynq/internal/bench"
)

func sampleReport() *bench.Report {
	return &bench.Report{
		SchemaVersion: bench.ReportSchemaVersion,
		Scale:         0.05,
		Trajectories:  5,
		Seed:          42,
		Figures: []bench.FigureReport{{
			Fig:    6,
			Title:  "Moving query cost",
			Metric: "io",
			Cells: []bench.CellReport{
				{
					Strategy: "naive", Overlap: 0.5, Range: 10,
					First:  bench.CostReport{LeafReads: 30, InternalReads: 10, Reads: 40, DistanceComps: 120, PrunedNodes: 2, Results: 8},
					Subseq: bench.CostReport{LeafReads: 30, InternalReads: 10, Reads: 40, DistanceComps: 120, PrunedNodes: 2, Results: 8},
				},
				{
					Strategy: "incremental", Overlap: 0.5, Range: 10,
					First:  bench.CostReport{LeafReads: 30, InternalReads: 10, Reads: 40, DistanceComps: 120, PrunedNodes: 2, Results: 8},
					Subseq: bench.CostReport{LeafReads: 5.2, InternalReads: 0.8, Reads: 6, DistanceComps: 30, PrunedNodes: 0.4, Results: 8},
				},
			},
		}, {
			Fig:    7,
			Title:  "Moving query cpu",
			Metric: "cpu",
			Cells: []bench.CellReport{{
				Strategy: "naive", Overlap: 0.5, Range: 10,
				First:  bench.CostReport{DistanceComps: 120},
				Subseq: bench.CostReport{DistanceComps: 120},
			}},
		}},
	}
}

func TestCompareIdenticalReportsPass(t *testing.T) {
	res, err := Compare(sampleReport(), sampleReport())
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("identical reports flagged: %s", res.Summary())
	}
	if res.CellsCompared != 3 {
		t.Errorf("CellsCompared = %d, want 3", res.CellsCompared)
	}

	// The checked-in baseline predates this schema's trimming (it carries
	// per-figure latency blocks); it must still load and equal itself.
	baseline, err := bench.ReadReport(filepath.Join("..", "..", "..", "results", "BENCH_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	res, err = Compare(baseline, baseline)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() || !strings.HasPrefix(res.Summary(), "compared 120 cells") {
		t.Errorf("checked-in baseline against itself: %s", res.Summary())
	}
}

// TestCompareFlagsInjectedRegression: the gate is equality, so one count
// up or down in any single counter of either phase fails and names the
// cell, the phase and the counter.
func TestCompareFlagsInjectedRegression(t *testing.T) {
	counters := map[string]func(*bench.CostReport) *float64{
		"reads":          func(c *bench.CostReport) *float64 { return &c.Reads },
		"leaf_reads":     func(c *bench.CostReport) *float64 { return &c.LeafReads },
		"internal_reads": func(c *bench.CostReport) *float64 { return &c.InternalReads },
		"distance_comps": func(c *bench.CostReport) *float64 { return &c.DistanceComps },
		"pruned_nodes":   func(c *bench.CostReport) *float64 { return &c.PrunedNodes },
		"results":        func(c *bench.CostReport) *float64 { return &c.Results },
	}
	phases := map[string]func(*bench.CellReport) *bench.CostReport{
		"first":  func(c *bench.CellReport) *bench.CostReport { return &c.First },
		"subseq": func(c *bench.CellReport) *bench.CostReport { return &c.Subseq },
	}
	for phase, cost := range phases {
		for counter, field := range counters {
			for _, delta := range []float64{+1, -1} {
				cur := sampleReport()
				*field(cost(&cur.Figures[0].Cells[1])) += delta

				res, err := Compare(sampleReport(), cur)
				if err != nil {
					t.Fatal(err)
				}
				if res.OK() || len(res.diffs) != 1 {
					t.Errorf("%s %s %+g: diffs = %v, want exactly the injected one", phase, counter, delta, res.diffs)
					continue
				}
				want := "fig 6 incremental overlap=0.5 range=10: " + phase + " " + counter + " "
				if !strings.Contains(res.Summary(), "DIFF "+want) || !strings.Contains(res.Summary(), "re-record") {
					t.Errorf("%s %s %+g: Summary() = %q, want it to name %q and say to re-record",
						phase, counter, delta, res.Summary(), want)
				}
				if res.CellsCompared != 3 {
					t.Errorf("CellsCompared = %d, want 3", res.CellsCompared)
				}
			}
		}
	}

	// No tolerance and no floor: a sub-unit drift in a sub-unit mean fails.
	cur := sampleReport()
	cur.Figures[0].Cells[1].Subseq.PrunedNodes += 0.2
	if res, err := Compare(sampleReport(), cur); err != nil || res.OK() {
		t.Errorf("0.4 -> 0.6 pruned nodes passed (err %v)", err)
	}
}

func TestCompareRejectsDifferentWorkloads(t *testing.T) {
	for _, mut := range []func(*bench.Report){
		func(r *bench.Report) { r.Scale = 0.1 },
		func(r *bench.Report) { r.Seed = 7 },
		func(r *bench.Report) { r.Trajectories = 50 },
	} {
		cur := sampleReport()
		mut(cur)
		if _, err := Compare(sampleReport(), cur); err == nil {
			t.Errorf("workload mismatch %+v not rejected", cur)
		}
	}
}

// TestCompareReportsMissingCells: within a figure that ran, the two cell
// sets must be the same set; a baseline figure that did not run at all is
// listed and does not fail.
func TestCompareReportsMissingCells(t *testing.T) {
	missing := sampleReport()
	missing.Figures[0].Cells = missing.Figures[0].Cells[:1]
	res, err := Compare(sampleReport(), missing)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() || len(res.diffs) != 1 || !strings.Contains(res.diffs[0], "fig 6 incremental") ||
		!strings.Contains(res.diffs[0], "missing from this run") {
		t.Errorf("dropped cell: diffs = %v", res.diffs)
	}
	if res.CellsCompared != 2 {
		t.Errorf("CellsCompared = %d, want 2", res.CellsCompared)
	}

	extra := sampleReport()
	c := extra.Figures[1].Cells[0]
	c.Strategy = "novel"
	extra.Figures[1].Cells = append(extra.Figures[1].Cells, c)
	res, err = Compare(sampleReport(), extra)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() || len(res.diffs) != 1 || !strings.Contains(res.diffs[0], "fig 7 novel") ||
		!strings.Contains(res.diffs[0], "not in the baseline") {
		t.Errorf("extra cell: diffs = %v", res.diffs)
	}

	onlyFig6 := sampleReport()
	onlyFig6.Figures = onlyFig6.Figures[:1]
	res, err = Compare(sampleReport(), onlyFig6)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() || res.CellsCompared != 2 {
		t.Errorf("figure not run failed the gate: %s", res.Summary())
	}
	if !strings.Contains(res.Summary(), "baseline figures not in this run: [7]") {
		t.Errorf("Summary() = %q, want figure 7 listed", res.Summary())
	}
}

func TestReportRoundTripThroughFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := sampleReport().WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := bench.ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compare(sampleReport(), back)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() || res.CellsCompared != 3 {
		t.Errorf("round-tripped report differs from original: %s", res.Summary())
	}
}

func TestReadReportRejectsWrongSchema(t *testing.T) {
	r := sampleReport()
	r.SchemaVersion = 99
	path := filepath.Join(t.TempDir(), "BENCH_bad.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := bench.ReadReport(path); err == nil || !strings.Contains(err.Error(), "schema version") {
		t.Errorf("wrong schema read back without error: %v", err)
	}
}
