package rtree

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"dynq/internal/geom"
	"dynq/internal/pager"
)

// refSplitGroups is the quadratic split as it ran on geom.Box values before
// the split table: every pair and every candidate measured afresh through
// the Box methods. splitGroups must make the same choices in the same order
// (TestSplitGroupsMatchesReference, FuzzSplitGroups).
func refSplitGroups(boxes []geom.Box, minEntries int) (a, b []int) {
	n := len(boxes)
	seedA, seedB := refPickSeedsQuadratic(boxes)
	a = []int{seedA}
	b = []int{seedB}
	coverA := boxes[seedA].Clone()
	coverB := boxes[seedB].Clone()

	rest := make([]int, 0, n-2)
	for i := 0; i < n; i++ {
		if i != seedA && i != seedB {
			rest = append(rest, i)
		}
	}
	for len(rest) > 0 {
		// If one group must take everything left to reach minEntries, do it.
		if len(a)+len(rest) <= minEntries {
			for _, i := range rest {
				a = append(a, i)
			}
			break
		}
		if len(b)+len(rest) <= minEntries {
			for _, i := range rest {
				b = append(b, i)
			}
			break
		}
		// PickNext: the entry with the greatest preference difference.
		bestK, bestDiff := 0, -1.0
		var bestDA, bestDB float64
		for k, i := range rest {
			da := refGrowthCost(coverA, boxes[i])
			db := refGrowthCost(coverB, boxes[i])
			diff := math.Abs(da - db)
			if diff > bestDiff {
				bestK, bestDiff, bestDA, bestDB = k, diff, da, db
			}
		}
		i := rest[bestK]
		rest = append(rest[:bestK], rest[bestK+1:]...)
		toA := bestDA < bestDB
		if bestDA == bestDB {
			// Resolve ties by smaller cover, then fewer entries.
			switch {
			case coverA.Area() != coverB.Area():
				toA = coverA.Area() < coverB.Area()
			default:
				toA = len(a) <= len(b)
			}
		}
		if toA {
			a = append(a, i)
			coverA.CoverInPlace(boxes[i])
		} else {
			b = append(b, i)
			coverB.CoverInPlace(boxes[i])
		}
	}
	return a, b
}

// refGrowthCost measures how much a group's cover grows by admitting box:
// area enlargement with a margin fallback for the degenerate zero-area
// boxes that are common in space-time keys.
func refGrowthCost(cover, box geom.Box) float64 {
	if d := cover.Enlargement(box); d != 0 {
		return d
	}
	return cover.CoverMargin(box) - cover.Margin()
}

// refPickSeedsQuadratic returns the pair wasting the most room if grouped
// together (Guttman's PickSeeds), with a margin-based fallback when all
// pair areas are degenerate.
func refPickSeedsQuadratic(boxes []geom.Box) (int, int) {
	n := len(boxes)
	bestI, bestJ, bestWaste := 0, 1, math.Inf(-1)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			waste := boxes[i].CoverArea(boxes[j]) - boxes[i].Area() - boxes[j].Area()
			if waste == 0 {
				waste = 1e-9 * (boxes[i].CoverMargin(boxes[j]) - boxes[i].Margin() - boxes[j].Margin())
			}
			if waste > bestWaste {
				bestI, bestJ, bestWaste = i, j, waste
			}
		}
	}
	return bestI, bestJ
}

// checkSplit deals 2–142 boxes of 3–10 axes and a minimum group size from
// data and requires splitGroups to return refSplitGroups' groups, in the
// same order. A box's shape byte chooses its extents as dealt (an inverted
// one makes the box empty), sorted, or sorted with the last two axes
// degenerate as a leaf entry's time axes are. Eight or more axes spanning
// ±MaxFloat32 overflow every area to +Inf, and every cost to NaN.
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
// every axis, ±MaxFloat32 wide — splitGroups picks the seeds, groups and
// order refSplitGroups picks. The committed corpus
// (testdata/fuzz/FuzzSplitGroups) holds an empty box, duplicate boxes,
// all-degenerate time axes (the margin fallback), the all-NaN PickNext,
// and an empty box as a seed. Run it with -fuzzminimizetime 1s: at the
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
// returns the two nodes as splitLeaf and splitInternal then receive them:
// the leaf with the new entry appended (128 entries at d=2) and the root
// with the leaf's new sibling appended (114).
func splitNodes(tb testing.TB) (cfg Config, leaf, root *Node) {
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
			if root, err = tree.load(tree.root, nil); err != nil {
				tb.Fatal(err)
			}
		}
		if root != nil && root.Len() == cfg.MaxInternalEntries() {
			ci := refChooseChild(root.Children, e.Box(cfg.Dims))
			if leaf, err = tree.load(root.Children[ci].ID, nil); err != nil {
				tb.Fatal(err)
			}
			if leaf.Len() == cfg.MaxLeafEntries() {
				leaf.Entries = append(leaf.Entries, e)
				s := leafTable(leaf.Entries, cfg.boxDims())
				ga, gb := s.splitGroups(cfg.minLeafEntries())
				ga, gb = forceNewInB(ga, gb, len(leaf.Entries)-1)
				root.Children[ci].Box = (&Node{Entries: pickLeafEntries(leaf.Entries, ga)}).MBR(cfg.Dims)
				root.Children = append(root.Children, Child{Box: (&Node{Entries: pickLeafEntries(leaf.Entries, gb)}).MBR(cfg.Dims)})
				return cfg, leaf, root
			}
		}
		if err := tree.Insert(e.ID, e.Seg); err != nil {
			tb.Fatal(err)
		}
	}
}
