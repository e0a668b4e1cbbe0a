package rtree

import (
	"math"

	"dynq/internal/geom"
)

// splitGroups partitions the indices of an over-full node's entry boxes
// into two groups, each holding at least minEntries, by Guttman's
// quadratic split: pick the pair of entries whose combined box wastes the
// most area as seeds, then assign remaining entries one at a time to the
// group whose cover grows least. The groups are returned as index slices
// into boxes; together they cover every index exactly once.
func splitGroups(boxes []geom.Box, minEntries int) (a, b []int) {
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
