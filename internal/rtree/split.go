package rtree

import (
	"math"
	"sort"

	"dynq/internal/geom"
)

// splitGroups partitions the indices of an over-full node's entry boxes
// into two groups, each holding at least minEntries. The groups are
// returned as index slices into boxes; together they cover every index
// exactly once.
func splitGroups(policy SplitPolicy, boxes []geom.Box, minEntries int) (a, b []int) {
	switch policy {
	case SplitLinear:
		return splitLinear(boxes, minEntries)
	case SplitRStarAxis:
		return splitRStar(boxes, minEntries)
	default:
		return splitQuadratic(boxes, minEntries)
	}
}

// splitQuadratic is Guttman's quadratic split: pick the pair of entries
// whose combined box wastes the most area as seeds, then assign remaining
// entries one at a time to the group whose cover grows least.
func splitQuadratic(boxes []geom.Box, minEntries int) (a, b []int) {
	n := len(boxes)
	seedA, seedB := pickSeedsQuadratic(boxes)
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
			da := growthCost(coverA, boxes[i])
			db := growthCost(coverB, boxes[i])
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

// growthCost measures how much a group's cover grows by admitting box:
// area enlargement with a margin fallback for the degenerate zero-area
// boxes that are common in space-time keys.
func growthCost(cover, box geom.Box) float64 {
	if d := cover.Enlargement(box); d != 0 {
		return d
	}
	return cover.CoverMargin(box) - cover.Margin()
}

// pickSeedsQuadratic returns the pair wasting the most room if grouped
// together (Guttman's PickSeeds), with a margin-based fallback when all
// pair areas are degenerate.
func pickSeedsQuadratic(boxes []geom.Box) (int, int) {
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

// splitLinear is Guttman's linear split: seeds are the pair with the
// greatest normalized separation along any dimension; remaining entries
// are assigned by least growth, respecting minEntries.
func splitLinear(boxes []geom.Box, minEntries int) (a, b []int) {
	n := len(boxes)
	dims := len(boxes[0])
	seedA, seedB, bestSep := 0, 1, math.Inf(-1)
	for d := 0; d < dims; d++ {
		// Highest low side and lowest high side, plus overall width.
		hiLo, loHi := 0, 0
		width := geom.EmptyInterval()
		for i, bx := range boxes {
			if bx[d].Lo > boxes[hiLo][d].Lo {
				hiLo = i
			}
			if bx[d].Hi < boxes[loHi][d].Hi {
				loHi = i
			}
			width = width.Cover(bx[d])
		}
		if hiLo == loHi {
			continue
		}
		sep := boxes[hiLo][d].Lo - boxes[loHi][d].Hi
		if w := width.Length(); w > 0 {
			sep /= w
		}
		if sep > bestSep {
			seedA, seedB, bestSep = loHi, hiLo, sep
		}
	}
	if seedA == seedB {
		seedB = (seedA + 1) % n
	}
	a = []int{seedA}
	b = []int{seedB}
	coverA := boxes[seedA].Clone()
	coverB := boxes[seedB].Clone()
	for i := 0; i < n; i++ {
		if i == seedA || i == seedB {
			continue
		}
		remaining := n - len(a) - len(b) // including i
		switch {
		case len(a)+remaining <= minEntries:
			a = append(a, i)
			coverA.CoverInPlace(boxes[i])
		case len(b)+remaining <= minEntries:
			b = append(b, i)
			coverB.CoverInPlace(boxes[i])
		case growthCost(coverA, boxes[i]) <= growthCost(coverB, boxes[i]):
			a = append(a, i)
			coverA.CoverInPlace(boxes[i])
		default:
			b = append(b, i)
			coverB.CoverInPlace(boxes[i])
		}
	}
	return a, b
}

// splitRStar is the R*-tree split: choose the axis minimizing the summed
// margins of all candidate distributions, then the distribution on that
// axis with the least overlap between the two covers (area as tiebreak).
func splitRStar(boxes []geom.Box, minEntries int) (a, b []int) {
	n := len(boxes)
	dims := len(boxes[0])

	type distribution struct {
		order []int
		split int // first split index in [minEntries, n-minEntries]
	}
	bestAxisMargin := math.Inf(1)
	var axisOrders [][]int // the two sort orders of the winning axis
	for d := 0; d < dims; d++ {
		byLo := sortedOrder(boxes, func(i, j int) bool { return boxes[i][d].Lo < boxes[j][d].Lo })
		byHi := sortedOrder(boxes, func(i, j int) bool { return boxes[i][d].Hi < boxes[j][d].Hi })
		margin := 0.0
		for _, order := range [][]int{byLo, byHi} {
			for s := minEntries; s <= n-minEntries; s++ {
				ca, cb := coversOf(boxes, order, s)
				margin += ca.Margin() + cb.Margin()
			}
		}
		if margin < bestAxisMargin {
			bestAxisMargin = margin
			axisOrders = [][]int{byLo, byHi}
		}
	}

	bestOverlap, bestArea := math.Inf(1), math.Inf(1)
	var best distribution
	for _, order := range axisOrders {
		for s := minEntries; s <= n-minEntries; s++ {
			ca, cb := coversOf(boxes, order, s)
			ov := ca.Intersect(cb).Area()
			ar := ca.Area() + cb.Area()
			if ov < bestOverlap || (ov == bestOverlap && ar < bestArea) {
				bestOverlap, bestArea = ov, ar
				best = distribution{order: order, split: s}
			}
		}
	}
	a = append([]int(nil), best.order[:best.split]...)
	b = append([]int(nil), best.order[best.split:]...)
	return a, b
}

func sortedOrder(boxes []geom.Box, less func(i, j int) bool) []int {
	order := make([]int, len(boxes))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool { return less(order[x], order[y]) })
	return order
}

func coversOf(boxes []geom.Box, order []int, split int) (geom.Box, geom.Box) {
	ca := geom.NewBox(len(boxes[0]))
	cb := geom.NewBox(len(boxes[0]))
	for _, i := range order[:split] {
		ca.CoverInPlace(boxes[i])
	}
	for _, i := range order[split:] {
		cb.CoverInPlace(boxes[i])
	}
	return ca, cb
}
