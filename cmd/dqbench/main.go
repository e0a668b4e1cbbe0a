// Command dqbench regenerates the evaluation figures of "Dynamic Queries
// over Mobile Objects" (EDBT 2002), the job the repository benchmark
// (benchmark/) does not do: one table per figure of per-query disk
// accesses (split leaf/internal) or distance computations, for the first
// snapshot query and averaged over subsequent snapshot queries, across the
// paper's overlap and query-range sweeps. It gates those deterministic
// counters exactly against a recorded baseline.
//
// Usage:
//
//	dqbench [-fig N] [-scale F] [-trajectories N] [-seed N] [-csv] [-mixed]
//	        [-json FILE] [-compare FILE]
//
//	-fig 0            regenerate all figures (6-13); or a single figure
//	-scale 0.2        object population scale (1.0 = the paper's 5000
//	                  objects / ~500k segments)
//	-trajectories 20  dynamic queries averaged per cell (paper: 1000)
//	-seed 1           workload RNG seed
//	-csv              machine-readable output for plotting
//	-mixed            also run the mixed static+mobile NPDQ experiment
//	-json FILE        write a versioned machine-readable report (BENCH_*.json)
//	-compare FILE     gate this run against a baseline report: every cost
//	                  counter of every cell of the figures run must equal
//	                  the baseline's; exits 3 on any difference
//
// SIGINT/SIGTERM finishes the current figure and exits cleanly; a second
// signal forces exit.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"dynq/internal/bench"
	"dynq/internal/bench/compare"
	"dynq/internal/stats"
)

// options holds the parsed command line.
type options struct {
	fig          int
	scale        float64
	trajectories int
	seed         int64
	mixed, csv   bool

	jsonOut, compare string
}

// newFlags declares every dqbench flag on a fresh set bound to o.
func newFlags(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("dqbench", flag.ExitOnError)
	fs.IntVar(&o.fig, "fig", 0, "figure to regenerate (6-13), 0 = all")
	fs.Float64Var(&o.scale, "scale", 0.2, "object population scale (1.0 = paper)")
	fs.IntVar(&o.trajectories, "trajectories", 20, "dynamic queries per cell (paper: 1000)")
	fs.Int64Var(&o.seed, "seed", 1, "workload RNG seed")
	fs.BoolVar(&o.mixed, "mixed", false, "also run the mixed static+mobile NPDQ experiment")
	fs.BoolVar(&o.csv, "csv", false, "emit machine-readable CSV instead of tables")
	fs.StringVar(&o.jsonOut, "json", "", "write a machine-readable benchmark report (BENCH_*.json) to this file")
	fs.StringVar(&o.compare, "compare", "", "baseline BENCH_*.json whose cost counters this run must equal")
	return fs
}

func main() {
	var o options
	fs := newFlags(&o)
	fs.Parse(os.Args[1:])

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil)) // text, info and up
	fatal := func(err error) {
		logger.Error("dqbench failed", "err", err)
		os.Exit(1)
	}

	// Shut down cleanly on SIGINT/SIGTERM: finish the figure in flight,
	// skip the rest. A second signal forces exit.
	var interrupted atomic.Bool
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		logger.Warn("interrupted, finishing current figure (^C again to force)")
		interrupted.Store(true)
		<-sig
		logger.Error("forced exit")
		os.Exit(130)
	}()

	cfg := bench.Config{Scale: o.scale, Trajectories: o.trajectories, Seed: o.seed}
	report := bench.NewReport(cfg)
	// finish writes the report and gates it against the baseline; every
	// successful exit path goes through it so -json/-compare work with a
	// -mixed-only run and after an interrupt.
	finish := func() {
		if o.jsonOut != "" {
			if err := report.WriteFile(o.jsonOut); err != nil {
				fatal(err)
			}
			logger.Info("wrote benchmark report", "path", o.jsonOut,
				"schema_version", bench.ReportSchemaVersion, "figures", len(report.Figures))
		}
		if o.compare != "" {
			baseline, err := bench.ReadReport(o.compare)
			if err != nil {
				fatal(err)
			}
			res, err := compare.Compare(baseline, report)
			if err != nil {
				fatal(err)
			}
			fmt.Fprintln(os.Stderr, res.Summary())
			if !res.OK() {
				logger.Error("cost counters differ from the baseline", "baseline", o.compare)
				os.Exit(3)
			}
		}
	}
	// The mixed experiment runs before the figures; with the default
	// -fig 0 it replaces the figure sweep entirely.
	if o.mixed {
		if err := runMixed(cfg); err != nil {
			fatal(err)
		}
		if o.fig == 0 {
			finish()
			return
		}
	}
	var specs []bench.FigureSpec
	if o.fig == 0 {
		specs = bench.Specs()
	} else {
		s, err := bench.SpecFor(bench.Figure(o.fig))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		specs = []bench.FigureSpec{s}
	}

	// Indexes are shared across figures with the same temporal layout.
	var single, dual *bench.Index
	index := func(dualTime bool) (*bench.Index, error) {
		if dualTime {
			if dual == nil {
				var err error
				dual, err = bench.BuildIndex(cfg, true)
				return dual, err
			}
			return dual, nil
		}
		if single == nil {
			var err error
			single, err = bench.BuildIndex(cfg, false)
			return single, err
		}
		return single, nil
	}

	for _, spec := range specs {
		if interrupted.Load() {
			logger.Warn("skipping remaining figures", "from_fig", int(spec.Fig))
			break
		}
		start := time.Now()
		ix, err := index(spec.DualTime)
		if err != nil {
			fatal(err)
		}
		cells, err := bench.RunFigureOn(ix, spec)
		if err != nil {
			fatal(err)
		}
		elapsed := time.Since(start)
		if o.csv {
			printCSV(spec, cells)
		} else {
			printFigure(spec, cells, ix.Segments, elapsed)
		}
		report.AddFigure(spec, cells, ix.Segments, elapsed)
	}
	finish()
}

var csvHeaderDone bool

// printCSV emits one row per cell with both metrics, suitable for
// plotting the figures directly.
func printCSV(spec bench.FigureSpec, cells []bench.Cell) {
	if !csvHeaderDone {
		fmt.Println("figure,range,overlap,strategy," +
			"first_leaf_reads,first_internal_reads,first_reads,first_dist," +
			"subseq_leaf_reads,subseq_internal_reads,subseq_reads,subseq_dist")
		csvHeaderDone = true
	}
	for _, c := range cells {
		fmt.Printf("%d,%g,%g,%s,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f\n",
			spec.Fig, c.Range, c.Overlap, c.Strategy,
			c.First.LeafReads, c.First.InternalReads, c.First.Reads(), c.First.DistanceComps,
			c.Subseq.LeafReads, c.Subseq.InternalReads, c.Subseq.Reads(), c.Subseq.DistanceComps)
	}
}

// runMixed prints the situational-awareness-mix experiment: NPDQ over a
// population dominated by long-lived static objects.
func runMixed(cfg bench.Config) error {
	fmt.Println("\n=== Mixed workload: 200 vehicles + 30000 static landmarks (NPDQ, 8x8) ===")
	fmt.Printf("%-7s | %-12s | %-12s | %s\n", "overlap", "naive subseq", "npdq subseq", "saving")
	for _, ov := range []float64{0, 0.5, 0.8, 0.9, 0.9999} {
		naive, npdq, err := bench.MixedExperiment(cfg, 200, 30000, ov)
		if err != nil {
			return err
		}
		nv, dq := naive.Subseq.Reads(), npdq.Subseq.Reads()
		fmt.Printf("%-7.4g | %12.2f | %12.2f | %5.1f%%\n", ov, nv, dq, 100*(1-dq/nv))
	}
	return nil
}

func printFigure(spec bench.FigureSpec, cells []bench.Cell, segments int, elapsed time.Duration) {
	fmt.Printf("\n=== Figure %d: %s ===\n", spec.Fig, spec.Title)
	fmt.Printf("index: %d segments (dual-time=%v); %d cells in %v\n",
		segments, spec.DualTime, len(cells), elapsed.Round(time.Millisecond))
	switch spec.Metric {
	case "io":
		fmt.Printf("%-8s %-7s %-9s | %-28s | %-28s\n",
			"range", "overlap", "strategy", "first query (leaf+int=total)", "subsequent avg (leaf+int=total)")
		for _, c := range cells {
			fmt.Printf("%-8.0f %-7.4g %-9s | %8.2f +%8.2f =%9.2f | %8.2f +%8.2f =%9.2f\n",
				c.Range, c.Overlap, c.Strategy,
				c.First.LeafReads, c.First.InternalReads, c.First.Reads(),
				c.Subseq.LeafReads, c.Subseq.InternalReads, c.Subseq.Reads())
		}
		printFrameBudgets(cells)
	case "cpu":
		fmt.Printf("%-8s %-7s %-9s | %-16s | %-16s\n",
			"range", "overlap", "strategy", "first dist comps", "subsequent avg")
		for _, c := range cells {
			fmt.Printf("%-8.0f %-7.4g %-9s | %16.1f | %16.1f\n",
				c.Range, c.Overlap, c.Strategy,
				c.First.DistanceComps, c.Subseq.DistanceComps)
		}
	}
}

// printFrameBudgets reads the 90%-overlap row through the disk cost model:
// how many snapshot queries per second each strategy would sustain on
// era-appropriate and modern hardware (the renderer needs 15-30 per
// second, Section 4).
func printFrameBudgets(cells []bench.Cell) {
	models := []stats.DiskModel{stats.HDD2002(), stats.NVMe2020()}
	printed := false
	for _, c := range cells {
		if c.Overlap != 0.9 {
			continue
		}
		if !printed {
			fmt.Printf("frame budget at 90%% overlap (subsequent queries, modeled):\n")
			printed = true
		}
		fmt.Printf("  %-6s range %-3.0f", c.Strategy, c.Range)
		for _, m := range models {
			fmt.Printf("  %s: %8.0f queries/s", m.Name, m.FrameBudget(c.Subseq))
		}
		fmt.Println()
	}
}
