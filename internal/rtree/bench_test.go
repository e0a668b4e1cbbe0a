package rtree

import (
	"math/rand"
	"testing"

	"dynq/internal/geom"
	"dynq/internal/pager"
	"dynq/internal/stats"
)

func benchEntries(n int, seed int64) []LeafEntry {
	r := rand.New(rand.NewSource(seed))
	entries := make([]LeafEntry, n)
	for i := range entries {
		entries[i] = LeafEntry{ID: ObjectID(i), Seg: randSegment(r)}
	}
	return entries
}

func BenchmarkInsert(b *testing.B) {
	entries := benchEntries(b.N, 1)
	tree, err := New(DefaultConfig(), pager.NewMemStore())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tree.Insert(entries[i].ID, entries[i].Seg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBulkLoad100k(b *testing.B) {
	entries := benchEntries(100000, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BulkLoad(DefaultConfig(), pager.NewMemStore(), entries); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(entries)), "segments")
}

func BenchmarkRangeSearch(b *testing.B) {
	tree, err := BulkLoad(DefaultConfig(), pager.NewMemStore(), benchEntries(100000, 3))
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(4))
	var c stats.Counters
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo0, lo1 := r.Float64()*90, r.Float64()*90
		start := r.Float64() * 99
		_, err := tree.RangeSearch(
			geom.Box{{Lo: lo0, Hi: lo0 + 8}, {Lo: lo1, Hi: lo1 + 8}},
			geom.Interval{Lo: start, Hi: start + 0.5},
			SearchOptions{}, &c)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(c.Snapshot().Reads())/float64(b.N), "reads/query")
}

func BenchmarkNodeEncodeDecode(b *testing.B) {
	cfg := DefaultConfig()
	n := &Node{ID: 1, Level: 0, Stamp: 7}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < cfg.MaxLeafEntries(); i++ {
		n.Entries = append(n.Entries, LeafEntry{ID: ObjectID(i), Seg: randSegment(r)})
	}
	buf := make([]byte, pager.PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := encodeNode(cfg, n, buf); err != nil {
			b.Fatal(err)
		}
		if _, err := decodeNode(cfg, 1, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLeafTest is the exact test over one full leaf: on the page, one
// entry per call (inplace) or scanning (scan), and as the leaf loop ran it
// before the kernel (clip the validity in place, decode what is left, test
// the decoded segment).
func BenchmarkLeafTest(b *testing.B) {
	// A leaf as the bulk loader packs one — a slab of time, a tile of space
	// — under a fly-through frame: most entries are valid during the frame
	// and miss the window on the first or second axis.
	cfg := DefaultConfig()
	leaf := &Node{ID: 1}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < cfg.MaxLeafEntries(); i++ {
		seg := randSegment(r)
		seg.T = geom.Interval{Lo: 49 + r.Float64(), Hi: 50.5 + r.Float64()}
		for d := range seg.Start {
			seg.Start[d] = 30 + seg.Start[d]*0.3
			seg.End[d] = seg.Start[d] + r.Float64()*2 - 1
		}
		leaf.Entries = append(leaf.Entries, LeafEntry{ID: ObjectID(i), Seg: seg})
	}
	page := make([]byte, pager.PageSize)
	if err := encodeNode(cfg, leaf, page); err != nil {
		b.Fatal(err)
	}
	v, err := openView(cfg, 1, page)
	if err != nil {
		b.Fatal(err)
	}
	var q Query
	q.Fill(geom.Box{{Lo: 40, Hi: 48}, {Lo: 40, Hi: 48}}, geom.Interval{Lo: 50, Hi: 50.5})
	matches := 0
	b.Run("inplace", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k := 0; k < v.Len(); k++ {
				if !v.EntryOverlapTime(k, q.Exact).Empty() {
					matches++
				}
			}
		}
	})
	// The range search's leaf loop: one scan that stops at each match.
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k := 0; ; k++ {
				if k, _ = v.NextOverlap(k, v.Len(), q.Exact); k == v.Len() {
					break
				}
				matches++
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		var e LeafEntry
		for i := 0; i < b.N; i++ {
			for k := 0; k < v.Len(); k++ {
				if v.EntryTime(k).Intersect(q.Window()).Empty() {
					continue
				}
				v.Entry(k, &e)
				if !e.Seg.OverlapTimeInBox(q.Exact).Empty() {
					matches++
				}
			}
		}
	})
	// NPDQ's test: the entry's box against the query's dual-space box.
	boxes := 0
	b.Run("box", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k := 0; k < v.Len(); k++ {
				if v.EntryOverlaps(k, q.Box) {
					boxes++
				}
			}
		}
	})
	// PDQ's operand: the entry's coordinates as linear forms of time.
	x := make([]geom.Linear, cfg.Dims)
	rising := 0
	b.Run("lines", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k := 0; k < v.Len(); k++ {
				if v.EntryLines(k, x).Hi > 50 && x[0].B > 0 {
					rising++
				}
			}
		}
	})
	if matches == 0 || boxes == 0 || rising == 0 {
		b.Fatalf("the box misses the leaf: %d exact, %d box, %d rising matches", matches, boxes, rising)
	}
}

func BenchmarkDelete(b *testing.B) {
	entries := benchEntries(b.N, 6)
	tree, err := BulkLoad(DefaultConfig(), pager.NewMemStore(), entries)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := entries[i]
		if err := tree.Delete(e.ID, float64(float32(e.Seg.T.Lo))); err != nil {
			b.Fatal(err)
		}
	}
}

// steadyTree is the shape of the ingest-wal workload's index: a bulk-loaded
// dual-time tree of 50 000 segments behind a 1 024-page buffer. Inserts
// into it mostly find room in a leaf, unlike BenchmarkInsert's tree, which
// grows from empty and is dominated by splits.
func steadyTree(b *testing.B) (*Tree, []LeafEntry) {
	cfg := DefaultConfig()
	cfg.DualTime = true
	entries := benchEntries(50000, 7)
	tree, err := BulkLoad(cfg, pager.NewMemStore(), entries)
	if err != nil {
		b.Fatal(err)
	}
	if err := tree.UseBuffer(1024); err != nil {
		b.Fatal(err)
	}
	return tree, entries
}

// BenchmarkInsertSteady measures the insert that finds room in its leaf:
// over any benchtime the CI and EXPERIMENTS.md use, no leaf of the
// half-full tree fills, so nothing splits (BenchmarkSplit times that).
func BenchmarkInsertSteady(b *testing.B) {
	tree, _ := steadyTree(b)
	fresh := benchEntries(b.N, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tree.Insert(ObjectID(50000+i), fresh[i].Seg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSplit is the quadratic split of a full node of an insert-grown
// dual-time tree, as Tree.split runs it: the boxes read off the over-full
// page into a split table, then grouped. The ingest path splits a leaf
// about once per 64 inserts.
func BenchmarkSplit(b *testing.B) {
	cfg, leaf, root := splitNodes(b)
	b.Run("leaf", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := tableOf(leaf.NodeView)
			s.splitGroups(cfg.minLeafEntries())
		}
	})
	b.Run("internal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := tableOf(root.NodeView)
			s.splitGroups(cfg.minInternalEntries())
		}
	})
}

// BenchmarkDeleteSteady deletes and re-inserts one segment per iteration,
// so the tree keeps its size; the insert is BenchmarkInsertSteady's.
func BenchmarkDeleteSteady(b *testing.B) {
	tree, entries := steadyTree(b)
	r := rand.New(rand.NewSource(9))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := entries[r.Intn(len(entries))]
		if err := tree.Delete(e.ID, e.Seg.T.Lo); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := tree.Insert(e.ID, e.Seg); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
