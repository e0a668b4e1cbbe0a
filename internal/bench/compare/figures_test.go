package compare

import (
	"path/filepath"
	"testing"

	"dynq/internal/bench"
)

// The figures measured in process at the baseline's workload (scale 0.05,
// five trajectories, seed 1) hold results/BENCH_baseline.json's cost
// counters in every one of its 120 cells: what `dqbench -scale 0.05
// -trajectories 5 -compare results/BENCH_baseline.json` checks, run by go
// test. A change to what a query reads or tests, or to the bulk-loaded
// trees the figures query, fails it; re-record the baseline (dqbench
// -json) only on purpose.
func TestFiguresMatchBaseline(t *testing.T) {
	baseline, err := bench.ReadReport(filepath.Join("..", "..", "..", "results", "BENCH_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := bench.Config{Scale: baseline.Scale, Trajectories: baseline.Trajectories, Seed: baseline.Seed}
	report := bench.NewReport(cfg)
	indexes := map[bool]*bench.Index{} // by temporal layout, shared as dqbench shares them
	for _, spec := range bench.Specs() {
		ix := indexes[spec.DualTime]
		if ix == nil {
			if ix, err = bench.BuildIndex(cfg, spec.DualTime); err != nil {
				t.Fatal(err)
			}
			indexes[spec.DualTime] = ix
		}
		cells, err := bench.RunFigureOn(ix, spec)
		if err != nil {
			t.Fatal(err)
		}
		report.AddFigure(spec, cells, ix.Segments, 0)
	}
	res, err := Compare(baseline, report)
	if err != nil {
		t.Fatal(err)
	}
	if res.CellsCompared != 120 || !res.OK() {
		t.Fatalf("%s\n(want 120 cells equal to the baseline)", res.Summary())
	}
	t.Log(res.Summary())
}
