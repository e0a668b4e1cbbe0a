// Package compare gates a fresh benchmark report against a recorded
// baseline. The paper's cost counters (disk accesses, distance
// computations) are deterministic for a fixed seed, so the gate is
// equality, cell for cell and counter for counter: a rise is a
// regression, a fall is a change somebody must look at and record, and
// both fail until the baseline is re-recorded on purpose.
package compare

import (
	"fmt"
	"strings"

	"dynq/internal/bench"
)

// Result summarizes one comparison.
type Result struct {
	// CellsCompared counts baseline cells matched in the new report.
	CellsCompared int
	// diffs holds one line per counter that differs and per cell that one
	// side measured and the other did not.
	diffs []string
	// notRun lists baseline figures the new report did not measure
	// (dqbench -fig N) — reported, not failed, so a narrowed run is
	// visible.
	notRun []int
}

// OK reports whether every compared counter equals the baseline.
func (r *Result) OK() bool { return len(r.diffs) == 0 }

// Summary renders the result for terminal output.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "compared %d cells", r.CellsCompared)
	if len(r.notRun) > 0 {
		fmt.Fprintf(&b, " (baseline figures not in this run: %v)", r.notRun)
	}
	if r.OK() {
		b.WriteString(": equal to the baseline")
		return b.String()
	}
	fmt.Fprintf(&b, ": %d difference(s)\n", len(r.diffs))
	for _, d := range r.diffs {
		b.WriteString("  DIFF " + d + "\n")
	}
	b.WriteString("the counters are deterministic for a fixed seed: if the change is intended, re-record the baseline deliberately (-json)")
	return b.String()
}

type cellKey struct {
	fig          int
	strategy     string
	overlap, rng float64
}

func (k cellKey) String() string {
	return fmt.Sprintf("fig %d %s overlap=%g range=%g", k.fig, k.strategy, k.overlap, k.rng)
}

func cellsOf(r *bench.Report) map[cellKey]bench.CellReport {
	m := make(map[cellKey]bench.CellReport)
	for _, f := range r.Figures {
		for _, c := range f.Cells {
			m[cellKey{f.Fig, c.Strategy, c.Overlap, c.Range}] = c
		}
	}
	return m
}

// Compare checks the new report against the baseline: for every figure
// the new report measured, it must hold exactly the baseline's cells with
// exactly the baseline's counters in both phases. It errors when the two
// runs measured different workloads (scale, seed, trajectory count),
// because cost counters are only comparable on identical input.
func Compare(baseline, current *bench.Report) (*Result, error) {
	if baseline.Scale != current.Scale {
		return nil, fmt.Errorf("compare: scale differs (baseline %g, current %g)", baseline.Scale, current.Scale)
	}
	if baseline.Seed != current.Seed {
		return nil, fmt.Errorf("compare: seed differs (baseline %d, current %d)", baseline.Seed, current.Seed)
	}
	if baseline.Trajectories != current.Trajectories {
		return nil, fmt.Errorf("compare: trajectory count differs (baseline %d, current %d)", baseline.Trajectories, current.Trajectories)
	}

	base, cur := cellsOf(baseline), cellsOf(current)
	ran := make(map[int]bool)
	for _, f := range current.Figures {
		ran[f.Fig] = true
	}

	res := &Result{}
	for _, f := range baseline.Figures {
		if !ran[f.Fig] {
			res.notRun = append(res.notRun, f.Fig)
			continue
		}
		for _, oc := range f.Cells {
			key := cellKey{f.Fig, oc.Strategy, oc.Overlap, oc.Range}
			nc, ok := cur[key]
			if !ok {
				res.diffs = append(res.diffs, key.String()+": in the baseline, missing from this run")
				continue
			}
			res.CellsCompared++
			diffPhase(res, key, "first", oc.First, nc.First)
			diffPhase(res, key, "subseq", oc.Subseq, nc.Subseq)
		}
	}
	for _, f := range current.Figures {
		for _, c := range f.Cells {
			key := cellKey{f.Fig, c.Strategy, c.Overlap, c.Range}
			if _, ok := base[key]; !ok {
				res.diffs = append(res.diffs, key.String()+": in this run, not in the baseline")
			}
		}
	}
	return res, nil
}

func diffPhase(res *Result, key cellKey, phase string, old, cur bench.CostReport) {
	for _, m := range []struct {
		name string
		o, n float64
	}{
		{"reads", old.Reads, cur.Reads},
		{"leaf_reads", old.LeafReads, cur.LeafReads},
		{"internal_reads", old.InternalReads, cur.InternalReads},
		{"distance_comps", old.DistanceComps, cur.DistanceComps},
		{"pruned_nodes", old.PrunedNodes, cur.PrunedNodes},
		{"results", old.Results, cur.Results},
	} {
		if m.o != m.n {
			res.diffs = append(res.diffs, fmt.Sprintf("%s: %s %s %v -> %v", key, phase, m.name, m.o, m.n))
		}
	}
}
