package rtree

import (
	"math"
	"slices"

	"dynq/internal/geom"
)

// splitTable is an over-full node laid flat for splitGroups: row i of ext is
// entry i's box. Its slabs — the rows with the covers a scan grows, the
// sort keys, and the sorted orders with the rows' emptiness — take three
// allocations whatever the fanout, and live for one split (Tree.split).
type splitTable struct {
	axes  int
	ext   []geom.Interval // the rows, axes extents each
	tail  []geom.Interval // tail k: the cover of rows order[k:], axes extents each
	head  geom.Box        // the cover of rows order[:k] as a scan grows it
	keys  []uint64        // one per row, for sortOn
	order [2][]int        // the rows sorted on the axis being scored: by lower bound, by upper bound
	best  [2][]int        // the same two orders of the best axis so far
	void  []int           // 1 for a row that is empty, 0 for one that is not; set as splitGroups starts
}

// newSplitTable makes a table for n boxes of axes extents; the caller
// fills every row.
func newSplitTable(n, axes int) splitTable {
	ext := make([]geom.Interval, (2*n+1)*axes)
	idx := make([]int, 5*n)
	return splitTable{
		axes:  axes,
		ext:   ext[: n*axes : n*axes],
		tail:  ext[n*axes : 2*n*axes : 2*n*axes],
		head:  ext[2*n*axes:],
		keys:  make([]uint64, n),
		order: [2][]int{idx[:n:n], idx[n : 2*n : 2*n]},
		best:  [2][]int{idx[2*n : 3*n : 3*n], idx[3*n : 4*n : 4*n]},
		void:  idx[4*n:],
	}
}

// tableOf lays out the node v views, one row per entry: EntryBox for a
// leaf, ChildBox for an internal node.
func tableOf(v NodeView) splitTable {
	s := newSplitTable(v.Len(), int(v.dims)+2)
	for i := range v.Len() {
		if v.Leaf() {
			v.EntryBox(i, s.row(i))
		} else {
			v.ChildBox(i, s.row(i))
		}
	}
	return s
}

// row returns entry i's box, to fill or to read.
func (s *splitTable) row(i int) geom.Box {
	return s.ext[i*s.axes : (i+1)*s.axes : (i+1)*s.axes]
}

// tailBox returns the cover of the rows from position k of the order last
// scanned.
func (s *splitTable) tailBox(k int) geom.Box {
	return s.tail[k*s.axes : (k+1)*s.axes : (k+1)*s.axes]
}

// splitGroups partitions the table's rows into two groups, each holding at
// least minEntries, by the R*-tree's split (Beckmann et al., SIGMOD 1990)
// without forced reinsertion. For each axis the rows are sorted by lower
// bound and, separately, by upper bound; a distribution is a sorted order
// cut in two, and the axis whose distributions have the least summed
// margin wins. On that axis the distribution with the least overlap
// between its two covers is taken, then the least total area, then the
// least total margin. Sorts break ties by row index, the first axis and
// the first distribution met win ties, so a given node always splits the
// same way. The groups are returned as index slices into the table, each
// in its sorted order; together they cover every index exactly once.
//
// It makes the choices refSplitGroups (split_test.go) makes on geom.Box
// values: covers take Box.CoverInPlace's min and max, and every area and
// margin is computed as Box computes it, in the same order. What it saves
// is repetition: one pass per order builds the covers of all its tails,
// and one more grows the head's cover row by row, where the reference
// covers each distribution afresh.
func (s *splitTable) splitGroups(minEntries int) (a, b []int) {
	for i := range s.void {
		s.void[i] = 0
		if s.row(i).Empty() {
			s.void[i] = 1
		}
	}
	bestSum := 0.0
	for axis := range s.axes {
		sum := 0.0
		for by, order := range s.order {
			s.sortOn(order, axis, by == 1)
			s.scan(order, minEntries, func(_ int, head, tail geom.Box) {
				sum += head.Margin() + tail.Margin()
			})
		}
		if axis == 0 || sum < bestSum {
			bestSum = sum
			s.order, s.best = s.best, s.order
		}
	}

	var cut []int
	split := 0
	var bestOverlap, bestArea, bestMargin float64
	for _, order := range s.best {
		s.scan(order, minEntries, func(k int, head, tail geom.Box) {
			overlap := overlapArea(head, tail)
			area := head.Area() + tail.Area()
			margin := head.Margin() + tail.Margin()
			if cut == nil || overlap < bestOverlap || overlap == bestOverlap && (area < bestArea || area == bestArea && margin < bestMargin) {
				cut, split = order, k
				bestOverlap, bestArea, bestMargin = overlap, area, margin
			}
		})
	}
	return cut[:split], cut[split:]
}

// sortOn fills order with every row, sorted by its lower (or upper) bound
// on axis, ties by row index. A row's bounds are float32 values, as pages
// hold them, so one integer per row carries the bound's order and, below
// it, the row.
func (s *splitTable) sortOn(order []int, axis int, upper bool) {
	for i := range s.keys {
		iv := s.ext[i*s.axes+axis]
		v := iv.Lo
		if upper {
			v = iv.Hi
		}
		s.keys[i] = uint64(orderBits(float32(v)))<<32 | uint64(i)
	}
	slices.Sort(s.keys)
	for k, key := range s.keys {
		order[k] = int(uint32(key))
	}
}

// orderBits maps a bound to an integer of the same order, -0 and +0 equal,
// so that bounds sort as cmp.Compare sorts them. A row holds no NaN: pages
// hold finite coordinates.
func orderBits(v float32) uint32 {
	if v == 0 {
		v = 0 // +0 for -0
	}
	b := math.Float32bits(v)
	if b>>31 == 1 {
		return ^b
	}
	return b | 1<<31
}

// scan calls visit for every distribution of order leaving each group at
// least minEntries rows, in order of k, the size of the first group: with
// head, the cover of rows order[:k], and tail, the cover of order[k:]. It
// grows the tails' covers from the last row back, keeping those a
// distribution has, then the head's from the first row on.
func (s *splitTable) scan(order []int, minEntries int, visit func(k int, head, tail geom.Box)) {
	n := len(order)
	c, empty := s.head, true
	clearBox(c)
	for k := n - 1; k >= minEntries; k-- {
		s.grow(c, &empty, order[k])
		if k <= n-minEntries {
			copy(s.tailBox(k), c)
		}
	}
	empty = true
	clearBox(c)
	for k := 1; k <= n-minEntries; k++ {
		s.grow(c, &empty, order[k-1])
		if k >= minEntries {
			visit(k, c, s.tailBox(k))
		}
	}
}

// grow covers row i into c as c.CoverInPlace(s.row(i)) would: an empty row
// (as splitGroups found it) changes nothing, and the first row that is not
// empty replaces the empty cover. empty says whether c is still that empty
// cover.
func (s *splitTable) grow(c geom.Box, empty *bool, i int) {
	if s.void[i] != 0 {
		return
	}
	r := s.row(i)
	if *empty {
		copy(c, r)
		*empty = false
		return
	}
	for k, iv := range r {
		c[k].Lo, c[k].Hi = min(c[k].Lo, iv.Lo), max(c[k].Hi, iv.Hi)
	}
}

// clearBox makes b empty, as geom.NewBox makes a box.
func clearBox(b geom.Box) {
	for i := range b {
		b[i] = geom.EmptyInterval()
	}
}

// overlapArea is p.Intersect(q).Area(), without the intersection's box.
func overlapArea(p, q geom.Box) float64 {
	area := 1.0
	for k, iv := range p {
		lo, hi := max(iv.Lo, q[k].Lo), min(iv.Hi, q[k].Hi)
		if lo > hi {
			return 0
		}
		area *= hi - lo
	}
	return area
}
