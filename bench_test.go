// Benchmarks regenerating every figure of the paper's evaluation section
// (Figures 6-13), plus ablations of the design choices called out in
// DESIGN.md. Each figure benchmark runs the full overlap/range sweep of
// the corresponding figure on a scaled-down population and reports the
// headline per-query costs as custom metrics; cmd/dqbench prints the full
// tables, and EXPERIMENTS.md records a paper-vs-measured comparison.
//
// Run a single figure:  go test -bench=Fig06 -benchmem
// Run everything:       go test -bench=. -benchmem
package dynq_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"dynq/internal/bench"
	"dynq/internal/core"
	"dynq/internal/geom"
	"dynq/internal/motion"
	"dynq/internal/pager"
	"dynq/internal/rtree"
	"dynq/internal/stats"
	"dynq/internal/workload"
)

// benchConfig keeps figure benchmarks laptop-fast (≈1/10 of the paper's
// population, ≈50k segments) while preserving every qualitative shape.
func benchConfig() bench.Config {
	return bench.Config{Scale: 0.1, Trajectories: 10, Seed: 1}
}

var (
	idxOnce   [2]sync.Once
	idxCached [2]*bench.Index
	idxErr    [2]error
)

// sharedIndex builds (once per temporal layout) the index all figure
// benchmarks run against.
func sharedIndex(b *testing.B, dual bool) *bench.Index {
	k := 0
	if dual {
		k = 1
	}
	idxOnce[k].Do(func() {
		idxCached[k], idxErr[k] = bench.BuildIndex(benchConfig(), dual)
	})
	if idxErr[k] != nil {
		b.Fatal(idxErr[k])
	}
	return idxCached[k]
}

// benchFigure runs one figure's full sweep per iteration and reports the
// headline metrics: per-query cost of subsequent snapshots at 90% overlap
// for each strategy in the figure (reads for "io" figures, distance
// computations for "cpu" figures).
func benchFigure(b *testing.B, fig bench.Figure) {
	spec, err := bench.SpecFor(fig)
	if err != nil {
		b.Fatal(err)
	}
	ix := sharedIndex(b, spec.DualTime)
	var cells []bench.Cell
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cells, err = bench.RunFigureOn(ix, spec)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, c := range cells {
		if c.Overlap != 0.9 || c.Range != spec.Ranges[len(spec.Ranges)-1] {
			continue
		}
		switch spec.Metric {
		case "io":
			b.ReportMetric(c.Subseq.Reads(), string(c.Strategy)+"-reads/query")
		case "cpu":
			b.ReportMetric(c.Subseq.DistanceComps, string(c.Strategy)+"-dist/query")
		}
	}
}

func BenchmarkFig06PDQIO(b *testing.B)       { benchFigure(b, 6) }
func BenchmarkFig07PDQCPU(b *testing.B)      { benchFigure(b, 7) }
func BenchmarkFig08PDQSizeIO(b *testing.B)   { benchFigure(b, 8) }
func BenchmarkFig09PDQSizeCPU(b *testing.B)  { benchFigure(b, 9) }
func BenchmarkFig10NPDQIO(b *testing.B)      { benchFigure(b, 10) }
func BenchmarkFig11NPDQCPU(b *testing.B)     { benchFigure(b, 11) }
func BenchmarkFig12NPDQSizeIO(b *testing.B)  { benchFigure(b, 12) }
func BenchmarkFig13NPDQSizeCPU(b *testing.B) { benchFigure(b, 13) }

// --- Ablations -----------------------------------------------------------

func ablationEntries(b *testing.B, n int) []rtree.LeafEntry {
	b.Helper()
	sim := motion.PaperConfig()
	sim.Objects = n / 100 // ≈100 segments per object
	if sim.Objects < 1 {
		sim.Objects = 1
	}
	segs, err := motion.GenerateSegments(sim)
	if err != nil {
		b.Fatal(err)
	}
	entries := make([]rtree.LeafEntry, len(segs))
	for i, s := range segs {
		entries[i] = rtree.LeafEntry{ID: rtree.ObjectID(s.ObjID), Seg: s.Seg}
	}
	return entries
}

// Leaf-exactness ablation: the NSI leaf optimization (exact segment test)
// versus bounding-box-only leaves, measured as false admissions shipped.
func BenchmarkAblationLeafExact(b *testing.B) {
	ix := sharedIndex(b, false)
	win := geom.Box{{Lo: 30, Hi: 38}, {Lo: 30, Hi: 38}}
	tw := geom.Interval{Lo: 40, Hi: 40.5}
	var exactN, looseN int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var c stats.Counters
		exact, err := ix.Tree.RangeSearch(win, tw, rtree.SearchOptions{}, &c)
		if err != nil {
			b.Fatal(err)
		}
		if looseN, err = boxAdmissions(ix.Tree, win, tw); err != nil {
			b.Fatal(err)
		}
		exactN = len(exact)
	}
	b.ReportMetric(float64(exactN), "exact-results")
	b.ReportMetric(float64(looseN-exactN), "false-admissions")
}

// boxAdmissions counts the leaf entries whose bounding box meets the
// query: what a search without the exact leaf test would ship.
func boxAdmissions(tree *rtree.Tree, win geom.Box, tw geom.Interval) (int, error) {
	var q rtree.Query
	q.Fill(win, tw)
	n := 0
	var visit func(id pager.PageID) error
	visit = func(id pager.PageID) error {
		var kids []pager.PageID
		err := tree.View(id, nil, func(v rtree.NodeView) error {
			for k := 0; k < v.Len(); k++ {
				switch {
				case v.Leaf():
					if v.EntryOverlaps(k, &q) {
						n++
					}
				case v.ChildOverlaps(k, q.Box):
					kids = append(kids, v.ChildID(k))
				}
			}
			return nil
		})
		for _, kid := range kids {
			if err == nil {
				err = visit(kid)
			}
		}
		return err
	}
	root, _, ok := tree.Root()
	if !ok {
		return 0, nil
	}
	return n, visit(root)
}

// Server-side LRU ablation. A big enough per-session LRU does let naive
// evaluation approach PDQ's disk reads — but that is exactly the paper's
// point (Section 4): the server pays a large per-session buffer (hurting
// multi-session capacity) and still re-ships every visible object every
// frame, while PDQ needs no server buffer and ships each object once.
// Report the per-query misses at small and large buffer sizes, PDQ's
// bufferless reads, and the objects shipped by each strategy.
func BenchmarkAblationNaiveLRU(b *testing.B) {
	entries := ablationEntries(b, 50000)
	bulk, err := rtree.BulkLoad(rtree.DefaultConfig(), pager.NewMemStore(), entries)
	if err != nil {
		b.Fatal(err)
	}
	q := workload.PaperQuery(0.9, 8)
	var smallMisses, largeMisses, pdqReads, naiveShipped, pdqShipped float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := workload.Generate(q, newRand(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		frames := float64(len(g.Windows))
		for _, bufPages := range []int{16, 256} {
			if err := bulk.UseBuffer(bufPages); err != nil {
				b.Fatal(err)
			}
			var c stats.Counters
			naive := core.NewNaive(bulk, rtree.SearchOptions{}, &c)
			for k := range g.Windows {
				if _, err := naive.Snapshot(g.Windows[k], g.Times[k]); err != nil {
					b.Fatal(err)
				}
			}
			miss := float64(bulk.Pool().Misses()) / frames
			if bufPages == 16 {
				smallMisses = miss
			} else {
				largeMisses = miss
				naiveShipped = float64(c.Snapshot().Results) / frames
			}
		}
		if err := bulk.UseBuffer(0); err != nil {
			b.Fatal(err)
		}
		var c2 stats.Counters
		pdq, err := core.NewPDQ(bulk, g.Traj, core.PDQOptions{}, &c2)
		if err != nil {
			b.Fatal(err)
		}
		for k := range g.Windows {
			if _, err := pdq.Drain(g.Times[k].Lo, g.Times[k].Hi); err != nil {
				b.Fatal(err)
			}
		}
		pdq.Close()
		pdqReads = float64(c2.Snapshot().Reads()) / frames
		pdqShipped = float64(c2.Snapshot().Results) / frames
	}
	b.ReportMetric(smallMisses, "naiveLRU16-misses/query")
	b.ReportMetric(largeMisses, "naiveLRU256-misses/query")
	b.ReportMetric(pdqReads, "pdq-nobuffer-reads/query")
	b.ReportMetric(naiveShipped, "naive-objects-shipped/query")
	b.ReportMetric(pdqShipped, "pdq-objects-shipped/query")
}

// Dual-axes ablation: NPDQ pruning power under the two temporal layouts,
// as the reads ratio against each layout's own naive baseline.
func BenchmarkAblationDualAxes(b *testing.B) {
	var ratios [2]float64
	for li, dual := range []bool{false, true} {
		ix := sharedIndex(b, dual)
		var nq, na float64
		for i := 0; i < b.N; i++ {
			cN, err := ix.RunCell(bench.StratNPDQ, 0.9, 8)
			if err != nil {
				b.Fatal(err)
			}
			cB, err := ix.RunCell(bench.StratNaive, 0.9, 8)
			if err != nil {
				b.Fatal(err)
			}
			nq, na = cN.Subseq.Reads(), cB.Subseq.Reads()
		}
		if na > 0 {
			ratios[li] = nq / na
		}
	}
	b.ReportMetric(ratios[0], "single-axis-ratio")
	b.ReportMetric(ratios[1], "dual-axis-ratio")
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Mixed static+mobile NPDQ experiment: the situational-awareness scenario
// of the paper's introduction, where discardability prunes the static
// bulk of the data.
func BenchmarkMixedStaticNPDQ(b *testing.B) {
	cfg := bench.Config{Scale: 1, Trajectories: 8, Seed: 1}
	var nv, dq float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		naive, npdq, err := bench.MixedExperiment(cfg, 200, 30000, 0.9)
		if err != nil {
			b.Fatal(err)
		}
		nv, dq = naive.Subseq.Reads(), npdq.Subseq.Reads()
	}
	b.ReportMetric(nv, "naive-reads/query")
	b.ReportMetric(dq, "npdq-reads/query")
}

// BenchmarkTracker times the Tracker on churnedTrackerFleet at
// examples/airtraffic's scale (40 states) and at 5 000: update is one
// dead-reckoning correction, during one of 200 windows and along one of 50
// three-waypoint routes (trackerQueries). update runs last: it moves the
// current time past the queries.
func BenchmarkTracker(b *testing.B) {
	for _, n := range []int{40, 5000} {
		f := churnedTrackerFleet(b, n, 1)
		now := f.now
		r := newRand(2)
		windows, routes := trackerQueries(r, now, 1000, 200, 50)
		corrections := make([]trackerCorrection, 2000)
		for i := range corrections {
			corrections[i] = f.correction(r, n, now)
		}
		b.Run(fmt.Sprintf("n=%d/during", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w := windows[i%len(windows)]
				if _, err := f.tk.During(w.view, w.t0, w.t1); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/along", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := f.tk.Along(routes[i%len(routes)]); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/update", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := corrections[i%len(corrections)]
				now += 1e-3
				if err := f.tk.Update(c.id, now, c.pos, c.vel); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
