package rtree

import (
	"math"

	"dynq/internal/geom"
)

// splitTable is an over-full node laid flat for splitGroups: row i of ext is
// entry i's box, measured once. It takes five allocations whatever the
// fanout, and lives for one split.
type splitTable struct {
	axes int
	ext  []geom.Interval // the rows, axes extents each
	box  []measure       // each row's emptiness, area and margin
	// PickNext's state: which rows are assigned, each unassigned row's
	// growth cost against either group's cover, and the groups themselves.
	taken []bool
	cost  [2][]float64
	group [2][]int
}

// newSplitTable makes a table for n boxes of axes extents; the caller
// fills every row.
func newSplitTable(n, axes int) splitTable {
	cost, group := make([]float64, 2*n), make([]int, 2*n)
	return splitTable{
		axes:  axes,
		ext:   make([]geom.Interval, n*axes),
		box:   make([]measure, n),
		taken: make([]bool, n),
		cost:  [2][]float64{cost[:n], cost[n:]},
		group: [2][]int{group[:0:n], group[n:n]},
	}
}

// leafTable lays out a leaf's entries (LeafEntry.Box), childTable an
// internal node's child boxes, each box having axes extents.
func leafTable(entries []LeafEntry, axes int) splitTable {
	s := newSplitTable(len(entries), axes)
	for i, e := range entries {
		e.fillBox(s.row(i))
	}
	return s
}

func childTable(children []Child, axes int) splitTable {
	s := newSplitTable(len(children), axes)
	for i, c := range children {
		copy(s.row(i), c.Box)
	}
	return s
}

// measure is what the split reads of a box besides its bounds: Box.Empty,
// Box.Area and Box.Margin.
type measure struct {
	empty        bool
	area, margin float64
}

func measureOf(b geom.Box) measure {
	return measure{empty: b.Empty(), area: b.Area(), margin: b.Margin()}
}

// splitCover is one group's cover while PickNext fills it.
type splitCover struct {
	ext [maxDims + 2]geom.Interval
	measure
}

// row returns entry i's box, to fill or to read.
func (s *splitTable) row(i int) geom.Box {
	return s.ext[i*s.axes : (i+1)*s.axes : (i+1)*s.axes]
}

// splitGroups partitions the table's rows into two groups, each holding at
// least minEntries, by Guttman's quadratic split: pick the pair of entries
// whose combined box wastes the most area as seeds, then assign remaining
// entries one at a time to the group whose cover grows least. The groups
// are returned as index slices into the table; together they cover every
// index exactly once.
//
// It makes the choices refSplitGroups (split_test.go) makes on geom.Box
// values, in the same order, so an insert-grown tree is the same bytes:
// every area, margin and cost is computed with the operations Box would
// use, in the same order. What it saves is repetition. Each box is measured
// once, not once per pair; and since an assignment grows one group's cover,
// only that group's costs are recomputed, and only if the cover moved.
func (s *splitTable) splitGroups(minEntries int) (a, b []int) {
	n := len(s.box)
	for i := range s.box {
		s.box[i] = measureOf(s.row(i))
	}
	grp := &s.group
	var cov [2]splitCover
	for side, seed := range s.pickSeeds() {
		copy(cov[side].ext[:], s.row(seed))
		cov[side].measure = s.box[seed]
		grp[side] = append(grp[side], seed)
		s.taken[seed] = true
	}
	for i, done := range s.taken {
		if !done {
			s.cost[0][i] = s.growth(&cov[0], i)
			s.cost[1][i] = s.growth(&cov[1], i)
		}
	}

	for left := n - 2; left > 0; left-- {
		// If one group must take everything left to reach minEntries, do it.
		for side := range grp {
			if len(grp[side])+left <= minEntries {
				for i, done := range s.taken {
					if !done {
						grp[side] = append(grp[side], i)
					}
				}
				return grp[0], grp[1]
			}
		}
		// PickNext: the entry with the greatest preference difference, the
		// first such in index order (the order of the reference's rest).
		best, bestDiff := -1, -1.0
		var bestDA, bestDB float64
		for i, done := range s.taken {
			if done {
				continue
			}
			if best < 0 {
				best = i // kept when every difference is NaN, its costs read as 0
			}
			da, db := s.cost[0][i], s.cost[1][i]
			if diff := math.Abs(da - db); diff > bestDiff {
				best, bestDiff, bestDA, bestDB = i, diff, da, db
			}
		}
		toA := bestDA < bestDB
		if bestDA == bestDB {
			// Resolve ties by smaller cover, then fewer entries.
			switch {
			case cov[0].area != cov[1].area:
				toA = cov[0].area < cov[1].area
			default:
				toA = len(grp[0]) <= len(grp[1])
			}
		}
		side := 1
		if toA {
			side = 0
		}
		s.taken[best] = true
		grp[side] = append(grp[side], best)
		if s.admit(&cov[side], best) {
			for i, done := range s.taken {
				if !done {
					s.cost[side][i] = s.growth(&cov[side], i)
				}
			}
		}
	}
	return grp[0], grp[1]
}

// pickSeeds returns the pair wasting the most room if grouped together
// (Guttman's PickSeeds), with a margin-based fallback when all pair areas
// are degenerate.
func (s *splitTable) pickSeeds() [2]int {
	best, bestWaste := [2]int{0, 1}, math.Inf(-1)
	for i, mi := range s.box {
		ri := s.row(i)
		for j := i + 1; j < len(s.box); j++ {
			mj := s.box[j]
			area, margin := coverMeasure(ri, mi, s.row(j), mj)
			waste := area - mi.area - mj.area
			if waste == 0 {
				waste = 1e-9 * (margin - mi.margin - mj.margin)
			}
			if waste > bestWaste {
				best, bestWaste = [2]int{i, j}, waste
			}
		}
	}
	return best
}

// growth is how much cover c grows by admitting row i: area enlargement
// with a margin fallback for the degenerate zero-area boxes that are common
// in space-time keys.
func (s *splitTable) growth(c *splitCover, i int) float64 {
	area, margin := coverMeasure(c.ext[:s.axes], c.measure, s.row(i), s.box[i])
	if d := area - c.area; d != 0 {
		return d
	}
	return margin - c.margin
}

// admit grows cover c to take row i as Box.CoverInPlace would and reports
// whether any bound changed (bit for bit).
func (s *splitTable) admit(c *splitCover, i int) bool {
	old := c.ext
	cover := geom.Box(c.ext[:s.axes])
	cover.CoverInPlace(s.row(i))
	for k, iv := range cover {
		if math.Float64bits(iv.Lo) != math.Float64bits(old[k].Lo) || math.Float64bits(iv.Hi) != math.Float64bits(old[k].Hi) {
			c.measure = measureOf(cover)
			return true
		}
	}
	return false
}

// coverMeasure is Box.CoverArea and Box.CoverMargin of p and q, boxes of
// equal length measured as pm and qm.
func coverMeasure(p geom.Box, pm measure, q geom.Box, qm measure) (area, margin float64) {
	switch {
	case pm.empty:
		return qm.area, qm.margin
	case qm.empty:
		return pm.area, pm.margin
	}
	q = q[:len(p)]
	area = 1.0
	for k, iv := range p {
		l := max(iv.Hi, q[k].Hi) - min(iv.Lo, q[k].Lo)
		area *= l
		margin += l
	}
	return area, margin
}
