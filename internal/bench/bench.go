// Package bench runs the paper's experiments (Section 5) and returns the
// rows behind every figure. It is shared by cmd/dqbench (human-readable
// tables) and the root benchmark suite (testing.B integration).
//
// Each experiment cell fixes a query range and an overlap level, runs a
// number of dynamic queries (random trajectories), and reports the mean
// cost of the first snapshot query and of the 50 subsequent snapshot
// queries, in the paper's two metrics: disk accesses (split leaf vs
// internal) and distance computations.
package bench

import (
	"fmt"
	"math/rand"

	"dynq/internal/core"
	"dynq/internal/rtree"
	"dynq/internal/stats"
	"dynq/internal/workload"
)

// Strategy names a query evaluation strategy under test.
type Strategy string

// Strategies.
const (
	StratNaive Strategy = "naive"
	StratPDQ   Strategy = "pdq"
	StratNPDQ  Strategy = "npdq"
)

// Config controls an experiment run.
type Config struct {
	// Scale shrinks the paper's 5000-object population (1.0 = paper).
	Scale float64
	// Trajectories is the number of dynamic queries averaged per cell
	// (the paper uses 1000).
	Trajectories int
	// Seed makes runs reproducible.
	Seed int64
}

// Cell is one measured point of a figure.
type Cell struct {
	Strategy Strategy
	Overlap  float64 // consecutive-snapshot overlap fraction
	Range    float64 // query window side
	First    stats.Mean
	Subseq   stats.Mean
}

// Index bundles a built index with its workload parameters.
type Index struct {
	Tree     *rtree.Tree
	Segments int
	cfg      Config
}

// BuildIndex constructs the experiment index. PDQ experiments use the
// paper's single-temporal-axis layout; NPDQ experiments the dual layout.
func BuildIndex(cfg Config, dualTime bool) (*Index, error) {
	tcfg := rtree.DefaultConfig()
	tcfg.DualTime = dualTime
	tree, n, err := workload.BuildIndex(tcfg, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return &Index{Tree: tree, Segments: n, cfg: cfg}, nil
}

// RunCell measures one (strategy, overlap, range) cell on the index.
func (ix *Index) RunCell(strategy Strategy, overlap, rng float64) (Cell, error) {
	q := workload.PaperQuery(overlap, rng)
	r := rand.New(rand.NewSource(ix.cfg.Seed*1000 + int64(overlap*10000) + int64(rng)))
	var first, subseq stats.Snapshot
	nSub := 0
	for tr := 0; tr < ix.cfg.Trajectories; tr++ {
		g, err := workload.Generate(q, r)
		if err != nil {
			return Cell{}, err
		}
		f, s, frames, err := ix.runOne(strategy, g)
		if err != nil {
			return Cell{}, err
		}
		first = first.Add(f)
		subseq = subseq.Add(s)
		nSub += frames
	}
	return Cell{
		Strategy: strategy,
		Overlap:  overlap,
		Range:    rng,
		First:    first.MeanOver(ix.cfg.Trajectories),
		Subseq:   subseq.MeanOver(nSub),
	}, nil
}

// runOne evaluates one dynamic query and returns the first-frame cost,
// the summed subsequent cost and the number of subsequent frames.
func (ix *Index) runOne(strategy Strategy, g *workload.Query) (first, subseq stats.Snapshot, frames int, err error) {
	var c stats.Counters
	switch strategy {
	case StratNaive:
		naive := core.NewNaive(ix.Tree, rtree.SearchOptions{}, &c)
		for i := range g.Windows {
			before := c.Snapshot()
			if _, err := naive.Snapshot(g.Windows[i], g.Times[i]); err != nil {
				return first, subseq, frames, err
			}
			delta := c.Snapshot().Sub(before)
			if i == 0 {
				first = delta
			} else {
				subseq = subseq.Add(delta)
				frames++
			}
		}
	case StratPDQ:
		pdq, err := core.NewPDQ(ix.Tree, g.Traj, core.PDQOptions{}, &c)
		if err != nil {
			return first, subseq, frames, err
		}
		defer pdq.Close()
		for i := range g.Windows {
			before := c.Snapshot()
			if _, err := pdq.Drain(g.Times[i].Lo, g.Times[i].Hi); err != nil {
				return first, subseq, frames, err
			}
			delta := c.Snapshot().Sub(before)
			if i == 0 {
				first = delta
			} else {
				subseq = subseq.Add(delta)
				frames++
			}
		}
	case StratNPDQ:
		npdq := core.NewNPDQ(ix.Tree, core.NPDQOptions{}, &c)
		for i := range g.Windows {
			before := c.Snapshot()
			if _, err := npdq.Next(g.Windows[i], g.Times[i]); err != nil {
				return first, subseq, frames, err
			}
			delta := c.Snapshot().Sub(before)
			if i == 0 {
				first = delta
			} else {
				subseq = subseq.Add(delta)
				frames++
			}
		}
	default:
		return first, subseq, frames, fmt.Errorf("bench: unknown strategy %q", strategy)
	}
	return first, subseq, frames, nil
}

// Figure identifies one of the paper's evaluation figures.
type Figure int

// FigureSpec describes how to regenerate a figure.
type FigureSpec struct {
	Fig        Figure
	Title      string
	Metric     string // "io" or "cpu"
	DualTime   bool   // index layout
	Strategies []Strategy
	Overlaps   []float64
	Ranges     []float64
}

// Specs enumerates every figure of the paper's evaluation section.
func Specs() []FigureSpec {
	pdqStrats := []Strategy{StratNaive, StratPDQ}
	npdqStrats := []Strategy{StratNaive, StratNPDQ}
	return []FigureSpec{
		{Fig: 6, Title: "I/O performance of PDQ", Metric: "io", Strategies: pdqStrats,
			Overlaps: workload.Overlaps, Ranges: []float64{8}},
		{Fig: 7, Title: "CPU performance of PDQ", Metric: "cpu", Strategies: pdqStrats,
			Overlaps: workload.Overlaps, Ranges: []float64{8}},
		{Fig: 8, Title: "Impact of query size on I/O (PDQ, subsequent queries)", Metric: "io",
			Strategies: []Strategy{StratPDQ}, Overlaps: workload.Overlaps, Ranges: workload.Ranges},
		{Fig: 9, Title: "Impact of query size on CPU (PDQ, subsequent queries)", Metric: "cpu",
			Strategies: []Strategy{StratPDQ}, Overlaps: workload.Overlaps, Ranges: workload.Ranges},
		{Fig: 10, Title: "I/O performance of NPDQ", Metric: "io", DualTime: true, Strategies: npdqStrats,
			Overlaps: workload.Overlaps, Ranges: []float64{8}},
		{Fig: 11, Title: "CPU performance of NPDQ", Metric: "cpu", DualTime: true, Strategies: npdqStrats,
			Overlaps: workload.Overlaps, Ranges: []float64{8}},
		{Fig: 12, Title: "Impact of query size on I/O (NPDQ, subsequent queries)", Metric: "io", DualTime: true,
			Strategies: []Strategy{StratNPDQ}, Overlaps: workload.Overlaps, Ranges: workload.Ranges},
		{Fig: 13, Title: "Impact of query size on CPU (NPDQ, subsequent queries)", Metric: "cpu", DualTime: true,
			Strategies: []Strategy{StratNPDQ}, Overlaps: workload.Overlaps, Ranges: workload.Ranges},
	}
}

// SpecFor returns the spec of one figure.
func SpecFor(fig Figure) (FigureSpec, error) {
	for _, s := range Specs() {
		if s.Fig == fig {
			return s, nil
		}
	}
	return FigureSpec{}, fmt.Errorf("bench: no figure %d (paper has figures 6-13)", fig)
}

// RunFigureOn measures a figure on an existing index (which must have the
// spec's temporal layout).
func RunFigureOn(ix *Index, spec FigureSpec) ([]Cell, error) {
	var cells []Cell
	for _, rng := range spec.Ranges {
		for _, ov := range spec.Overlaps {
			for _, st := range spec.Strategies {
				cell, err := ix.RunCell(st, ov, rng)
				if err != nil {
					return nil, err
				}
				cells = append(cells, cell)
			}
		}
	}
	return cells, nil
}

// MixedExperiment measures the situational-awareness mix (the paper's
// introduction scenario): a population of nStatic long-lived landmarks /
// sensors plus nMobile vehicles, queried with NPDQ at the given overlap.
// It reports naive and NPDQ subsequent-query reads — the regime where
// discardability prunes the static bulk of the data (see DESIGN.md).
func MixedExperiment(cfg Config, nMobile, nStatic int, overlap float64) (naive, npdq Cell, err error) {
	tcfg := rtree.DefaultConfig()
	tcfg.DualTime = true
	tree, n, err := workload.BuildMixedIndex(tcfg, nMobile, nStatic, cfg.Seed)
	if err != nil {
		return Cell{}, Cell{}, err
	}
	ix := &Index{Tree: tree, Segments: n, cfg: cfg}
	naive, err = ix.RunCell(StratNaive, overlap, 8)
	if err != nil {
		return Cell{}, Cell{}, err
	}
	npdq, err = ix.RunCell(StratNPDQ, overlap, 8)
	return naive, npdq, err
}
