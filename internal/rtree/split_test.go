package rtree

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"dynq/internal/geom"
	"dynq/internal/pager"
)

// refSplitGroups is the R*-axis split written plainly on geom.Box values:
// every order sorted afresh, every distribution's two covers built afresh
// through the Box methods. splitGroups must return the same groups in the
// same order (TestSplitGroupsMatchesReference, FuzzSplitGroups).
func refSplitGroups(boxes []geom.Box, minEntries int) (a, b []int) {
	n, axes := len(boxes), len(boxes[0])
	var orders [2][]int // the chosen axis's orders
	bestSum := 0.0
	for d := 0; d < axes; d++ {
		byLo := refSortedOrder(boxes, func(b geom.Box) float64 { return b[d].Lo })
		byHi := refSortedOrder(boxes, func(b geom.Box) float64 { return b[d].Hi })
		sum := 0.0
		for _, order := range [][]int{byLo, byHi} {
			for k := minEntries; k <= n-minEntries; k++ {
				head, tail := refCovers(boxes, order, k)
				sum += head.Margin() + tail.Margin()
			}
		}
		if d == 0 || sum < bestSum {
			bestSum, orders = sum, [2][]int{byLo, byHi}
		}
	}

	var best []int
	bestK := 0
	var bestOverlap, bestArea, bestMargin float64
	for _, order := range orders {
		for k := minEntries; k <= n-minEntries; k++ {
			head, tail := refCovers(boxes, order, k)
			overlap := head.Intersect(tail).Area()
			area := head.Area() + tail.Area()
			margin := head.Margin() + tail.Margin()
			better := overlap < bestOverlap ||
				overlap == bestOverlap && area < bestArea ||
				overlap == bestOverlap && area == bestArea && margin < bestMargin
			if best == nil || better {
				best, bestK = order, k
				bestOverlap, bestArea, bestMargin = overlap, area, margin
			}
		}
	}
	return slices.Clone(best[:bestK]), slices.Clone(best[bestK:])
}

// refSortedOrder is the box indices sorted stably by key.
func refSortedOrder(boxes []geom.Box, key func(geom.Box) float64) []int {
	order := make([]int, len(boxes))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(i, j int) int { return cmp.Compare(key(boxes[i]), key(boxes[j])) })
	return order
}

// refCovers is the covers of the boxes order[:k] and order[k:].
func refCovers(boxes []geom.Box, order []int, k int) (head, tail geom.Box) {
	head, tail = geom.NewBox(len(boxes[0])), geom.NewBox(len(boxes[0]))
	for _, i := range order[:k] {
		head.CoverInPlace(boxes[i])
	}
	for _, i := range order[k:] {
		tail.CoverInPlace(boxes[i])
	}
	return head, tail
}

// checkSplit deals 2–142 boxes of 3–10 axes and a minimum group size from
// data and requires splitGroups to return refSplitGroups' groups, in the
// same order. A box's shape byte chooses its extents as dealt (an inverted
// one makes the box empty), sorted, or sorted with the last two axes
// degenerate as a leaf entry's time axes are. Eight or more axes spanning
// ±MaxFloat32 overflow areas to +Inf, and a degenerate axis then makes
// them NaN. Whatever the reference says, the groups must each hold at
// least the minimum and together hold every box once.
func checkSplit(t *testing.T, axes uint8, data []byte) {
	t.Helper()
	src := &fuzzSrc{b: data}
	ax := 3 + int(axes)%(maxDims)
	n := 2 + int(src.take(1))%141
	minEntries := 1 + int(src.take(1))%(n/2)
	boxes := make([]geom.Box, n)
	for i := range boxes {
		box := make(geom.Box, ax)
		shape := src.take(1) % 4
		for k := range box {
			lo, hi := src.coord(), src.coord()
			switch {
			case shape == 0:
			case shape == 1 && k >= ax-2:
				hi = lo
			default:
				lo, hi = min(lo, hi), max(lo, hi)
			}
			box[k] = geom.Interval{Lo: lo, Hi: hi}
		}
		boxes[i] = box
	}
	wantA, wantB := refSplitGroups(boxes, minEntries)
	s := newSplitTable(n, ax)
	for i, box := range boxes {
		copy(s.row(i), box)
	}
	gotA, gotB := s.splitGroups(minEntries)
	if !slices.Equal(gotA, wantA) || !slices.Equal(gotB, wantB) {
		t.Fatalf("%d boxes of %d axes, min %d: %v\n split table %v | %v\n reference   %v | %v", n, ax, minEntries, boxes, gotA, gotB, wantA, wantB)
	}
	seen := make([]bool, n)
	for _, i := range slices.Concat(gotA, gotB) {
		if seen[i] {
			t.Fatalf("%d boxes: box %d in both groups %v | %v", n, i, gotA, gotB)
		}
		seen[i] = true
	}
	if len(gotA) < minEntries || len(gotB) < minEntries || len(gotA)+len(gotB) != n {
		t.Fatalf("%d boxes, min %d: groups %v | %v are not a split", n, minEntries, gotA, gotB)
	}
}

// The split table makes the reference's choices on random nodes.
func TestSplitGroupsMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for i := 0; i < 400; i++ {
		data := make([]byte, 64+r.Intn(4096))
		r.Read(data)
		checkSplit(t, uint8(i), data)
	}
}

// FuzzSplitGroups: whatever the boxes — empty, duplicated, degenerate on
// every axis, ±MaxFloat32 wide — splitGroups picks the axis, distribution
// and group order refSplitGroups picks. The committed corpus
// (testdata/fuzz/FuzzSplitGroups) holds an empty box (empty-box, and
// empty-seed with one first), every box empty (all-empty, where every
// distribution ties), duplicate boxes (sort ties), degenerate time axes
// (zero areas), bounds of +0 and -0 (signed-zeros), eight ±MaxFloat32 axes
// (maxfloat32-all-nan: infinite and NaN areas) and a full d=2 leaf plus
// one at its real minimum fill (leaf-fanout). Run it with -fuzzminimizetime 1s: at the
// default the engine spends minutes minimising each new input, thousands
// of bytes long, and reports no executions meanwhile.
func FuzzSplitGroups(f *testing.F) {
	r := rand.New(rand.NewSource(31))
	for i := 0; i < 8; i++ {
		data := make([]byte, 3000)
		r.Read(data)
		f.Add(uint8(i), data)
	}
	f.Fuzz(checkSplit)
}

// splitNodes grows a dual-time tree from empty, as BenchmarkInsert does,
// until an insert is about to split a full leaf under a full root, and
// returns the two over-full nodes as Tree.split then receives them: the
// leaf with the new entry appended (128 entries at d=2) and the root with
// the leaf's new sibling appended (114).
func splitNodes(tb testing.TB) (cfg Config, leaf, root nodeEdit) {
	tb.Helper()
	cfg = DefaultConfig()
	cfg.DualTime = true
	tree, err := New(cfg, pager.NewMemStore())
	if err != nil {
		tb.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	for id := ObjectID(0); ; id++ {
		e := LeafEntry{ID: id, Seg: QuantizeSegment(randSegment(r))}
		if tree.height == 2 {
			err := tree.view(tree.root, nil, func(rv NodeView) error {
				if rv.Len() < cfg.MaxInternalEntries() {
					return nil
				}
				ci := rv.chooseChild(e.Box(cfg.Dims))
				return tree.view(rv.ChildID(ci), nil, func(lv NodeView) error {
					if lv.Len() < cfg.MaxLeafEntries() {
						return nil
					}
					leaf = overfull(lv)
					leaf.appendEntry(e)
					s := tableOf(leaf.NodeView)
					ga, gb := s.splitGroups(cfg.minLeafEntries())
					ga, gb = forceNewInB(ga, gb, leaf.Len()-1)
					root = overfull(rv)
					root.setChildBox(ci, cover(&s, ga))
					root.appendChild(cover(&s, gb), 0)
					return nil
				})
			})
			if err != nil {
				tb.Fatal(err)
			}
			if root.page != nil {
				return cfg, leaf, root
			}
		}
		if err := tree.Insert(e.ID, e.Seg); err != nil {
			tb.Fatal(err)
		}
	}
}

// cover is the box of a split group: the cover of its rows.
func cover(s *splitTable, group []int) geom.Box {
	box := geom.NewBox(s.axes)
	for _, i := range group {
		box.CoverInPlace(s.row(i))
	}
	return box
}
