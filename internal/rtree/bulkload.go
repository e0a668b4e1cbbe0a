package rtree

import (
	"fmt"
	"math"
	"sort"

	"dynq/internal/geom"
	"dynq/internal/pager"
)

// BulkLoad builds a tree from a segment set using Sort-Tile-Recursive
// packing at the configured bulk fill factor (the paper builds its index
// at 0.5 fill for both node kinds, Section 5). It is how the experiment
// harness constructs the half-million-segment index quickly; the resulting
// tree behaves identically to one built by repeated Insert calls.
func BulkLoad(cfg Config, store pager.Store, entries []LeafEntry) (*Tree, error) {
	t, err := New(cfg, store)
	if err != nil {
		return nil, err
	}
	if len(entries) == 0 {
		return t, nil
	}
	leafCap := int(math.Floor(float64(cfg.MaxLeafEntries()) * cfg.BulkFill))
	if leafCap < 1 {
		leafCap = 1
	}
	intCap := int(math.Floor(float64(cfg.MaxInternalEntries()) * cfg.BulkFill))
	if intCap < 2 {
		intCap = 2
	}

	// Quantize to the on-disk precision up front, as Insert would.
	quant := make([]LeafEntry, len(entries))
	for i, e := range entries {
		if len(e.Seg.Start) != cfg.Dims || len(e.Seg.End) != cfg.Dims {
			return nil, fmt.Errorf("rtree: bulk entry %d has wrong dimensionality", i)
		}
		if e.Seg.T.Empty() {
			return nil, fmt.Errorf("rtree: bulk entry %d has empty validity interval", i)
		}
		quant[i] = LeafEntry{ID: e.ID, Seg: QuantizeSegment(e.Seg)}
	}

	// Pack leaves time-major: entries are first sliced into contiguous
	// runs of start times, then each slice is tiled spatially (STR). This
	// mirrors how the paper's index grows under time-ordered motion
	// updates — leaves are narrow in start time, which both matches a
	// historical database's natural layout and is what gives NPDQ
	// discardability its pruning opportunities (a node whose newest
	// segment predates the previous query can be covered by it).
	centers := make([][]float64, len(quant))
	for i, e := range quant {
		c := make([]float64, cfg.Dims+1)
		for d := 0; d < cfg.Dims; d++ {
			c[d] = (e.Seg.Start[d] + e.Seg.End[d]) / 2
		}
		c[cfg.Dims] = e.Seg.T.Lo
		centers[i] = c
	}
	order := timeMajorOrder(centers, cfg.Dims, leafCap, timeSlabs(cfg, quant, leafCap))

	level := make([]item, 0, (len(quant)+leafCap-1)/leafCap)
	for lo := 0; lo < len(order); lo += leafCap {
		leaf := t.fresh(0)
		for _, k := range order[lo:min(lo+leafCap, len(order))] {
			leaf.appendEntry(quant[k])
		}
		if level, err = t.pack(leaf, level); err != nil {
			return nil, err
		}
	}
	t.size = len(quant)
	t.height = 1

	// Pack upper levels by grouping consecutive children: the leaf order
	// is already time-major with spatial tiles inside each time slice, so
	// consecutive grouping preserves that locality at every level.
	for len(level) > 1 {
		next := make([]item, 0, (len(level)+intCap-1)/intCap)
		for lo := 0; lo < len(level); lo += intCap {
			node := t.fresh(t.height)
			for _, c := range level[lo:min(lo+intCap, len(level))] {
				node.appendChild(c.box, c.child)
			}
			if next, err = t.pack(node, next); err != nil {
				return nil, err
			}
		}
		level = next
		t.height++
	}
	t.root = level[0].child
	return t, nil
}

// pack writes node, assembled by fresh, to a new page and appends the
// child entry that leads to it to level.
func (t *Tree) pack(node nodeEdit, level []item) ([]item, error) {
	id, err := t.pool.Alloc()
	if err != nil {
		return level, err
	}
	box := make(geom.Box, t.cfg.boxDims())
	node.MBR(box)
	return append(level, item{box: box, level: node.Level() + 1, child: id}), t.put(id)
}

// timeSlabs chooses how many contiguous start-time slices the bulk loader
// uses. The single-axis layout (the PDQ experiments) balances time
// against space (√pages slabs). The dual-axes layout exists for NPDQ
// discardability, whose pruning power comes from leaves whose newest
// start time predates the previous query — that requires slabs finer than
// a segment lifetime, so slab width targets a quarter of the median
// segment duration, floored so each slab still spans a few pages of
// spatial tiling.
func timeSlabs(cfg Config, entries []LeafEntry, leafCap int) int {
	pages := (len(entries) + leafCap - 1) / leafCap
	if pages <= 1 {
		return 1
	}
	balanced := int(math.Ceil(math.Sqrt(float64(pages))))
	if !cfg.DualTime {
		return balanced
	}
	durations := make([]float64, len(entries))
	tsMin, tsMax := math.Inf(1), math.Inf(-1)
	for i, e := range entries {
		durations[i] = e.Seg.T.Length()
		tsMin = math.Min(tsMin, e.Seg.T.Lo)
		tsMax = math.Max(tsMax, e.Seg.T.Lo)
	}
	sort.Float64s(durations)
	median := durations[len(durations)/2]
	if median <= 0 || tsMax <= tsMin {
		return balanced
	}
	slabs := int(math.Ceil((tsMax - tsMin) / (median / 4)))
	// Keep at least 4 pages per slab so each slab still tiles space.
	if maxSlabs := pages / 4; slabs > maxSlabs {
		slabs = maxSlabs
	}
	if slabs < 1 {
		slabs = 1
	}
	return slabs
}

// timeMajorOrder returns an ordering where entries are sorted by start
// time (the last center coordinate), sliced into the given number of
// contiguous time slices, and each slice is tiled spatially with STR over
// the first spatialDims coordinates.
func timeMajorOrder(centers [][]float64, spatialDims, groupSize, slabs int) []int {
	idx := make([]int, len(centers))
	for i := range idx {
		idx[i] = i
	}
	if len(idx) <= groupSize {
		return idx
	}
	tdim := len(centers[0]) - 1
	sort.Slice(idx, func(a, b int) bool {
		ca, cb := centers[idx[a]], centers[idx[b]]
		if ca[tdim] != cb[tdim] {
			return ca[tdim] < cb[tdim]
		}
		return idx[a] < idx[b]
	})
	if slabs < 1 {
		slabs = 1
	}
	sliceLen := int(math.Ceil(float64(len(idx)) / float64(slabs)))
	if sliceLen < groupSize {
		sliceLen = groupSize
	}
	for lo := 0; lo < len(idx); lo += sliceLen {
		hi := min(lo+sliceLen, len(idx))
		strTile(idx[lo:hi], centers, 0, spatialDims, groupSize)
	}
	return idx
}

// strTile recursively sorts idx in place: slab-partition on dimension d,
// recurse on the remaining dimensions within each slab.
func strTile(idx []int, centers [][]float64, d, dims, groupSize int) {
	if len(idx) <= groupSize || d >= dims {
		return
	}
	sort.Slice(idx, func(a, b int) bool {
		ca, cb := centers[idx[a]], centers[idx[b]]
		if ca[d] != cb[d] {
			return ca[d] < cb[d]
		}
		return idx[a] < idx[b]
	})
	if d == dims-1 {
		return // final dimension: the sorted run is chunked by the caller
	}
	pages := int(math.Ceil(float64(len(idx)) / float64(groupSize)))
	slabs := int(math.Ceil(math.Pow(float64(pages), 1/float64(dims-d))))
	if slabs < 1 {
		slabs = 1
	}
	slabLen := int(math.Ceil(float64(len(idx)) / float64(slabs)))
	if slabLen < groupSize {
		slabLen = groupSize
	}
	for lo := 0; lo < len(idx); lo += slabLen {
		hi := min(lo+slabLen, len(idx))
		strTile(idx[lo:hi], centers, d+1, dims, groupSize)
	}
}

// Restore reattaches an existing tree stored in store (built earlier by
// BulkLoad or Insert and persisted via Meta) without touching pages.
func Restore(cfg Config, store pager.Store, root pager.PageID, height, size int, modSeq uint64) (*Tree, error) {
	t, err := New(cfg, store)
	if err != nil {
		return nil, err
	}
	t.root = root
	t.height = height
	t.size = size
	t.modSeq = modSeq
	return t, nil
}

// Meta captures what Restore needs to reopen a persisted tree.
type Meta struct {
	Root   pager.PageID
	Height int
	Size   int
	ModSeq uint64
	Config Config
}

// Meta returns the tree's persistence metadata.
func (t *Tree) Meta() Meta {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return Meta{Root: t.root, Height: t.height, Size: t.size, ModSeq: t.modSeq, Config: t.cfg}
}
