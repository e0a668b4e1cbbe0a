package rtree

import (
	"encoding/binary"
	"fmt"

	"dynq/internal/geom"
	"dynq/internal/pager"
)

// nodeEdit is the mutable counterpart of NodeView: one node page lent by
// the pool for modification where it lies, under the tree's exclusive
// lock, or a new page being assembled (fresh). The primitives below are the
// whole write vocabulary of the tree; each leaves the page exactly as the
// tests' reference codec would have encoded the mutated node — entries
// packed from the header on, every byte behind the last entry zero — so an
// edited page and a re-encoded one are the same bytes. Nothing here can
// fail: openEdit has validated the header, and the callers check capacity
// before they append.
type nodeEdit struct {
	NodeView
	lease pager.Edit
}

// openEdit borrows node id's page for modification. Only commit makes the
// changes count; the caller opens an edit once it knows what to change.
func (t *Tree) openEdit(id pager.PageID) (nodeEdit, error) {
	lease, err := t.pool.Edit(id)
	if err != nil {
		return nodeEdit{}, fmt.Errorf("rtree: edit page %d: %w", id, err)
	}
	v, err := openView(t.cfg, id, lease.Page)
	if err != nil {
		return nodeEdit{}, err
	}
	return nodeEdit{NodeView: v, lease: lease}, nil
}

// commit stamps the edited node with the current modification sequence and
// hands the page back, charging one page write. The edit must not be used
// afterwards.
func (t *Tree) commit(e nodeEdit) error {
	binary.LittleEndian.PutUint64(e.page[4:], t.modSeq)
	t.mc.AddPageWrite()
	return e.lease.Commit()
}

// fresh starts a new node page at level in the tree's scratch buffer: no
// entries, stamped with the current modification sequence. The caller fills
// it with the append primitives and hands it to the pool with put. A new
// page is assembled aside rather than edited where it lies: an edit would
// first read the page's old bytes through the pool.
func (t *Tree) fresh(level int) nodeEdit {
	p := t.scratch
	clear(p)
	p[0] = byte(level)
	if t.cfg.DualTime {
		p[1] = flagDualTime
	}
	binary.LittleEndian.PutUint64(p[4:], t.modSeq)
	return nodeEdit{NodeView: NodeView{page: p, entryLayout: t.cfg.layout(level == 0)}}
}

// put writes the page fresh assembled as page id, charging one page write.
func (t *Tree) put(id pager.PageID) error {
	t.mc.AddPageWrite()
	return t.pool.Put(id, t.scratch)
}

func (e nodeEdit) setLen(n int) { binary.LittleEndian.PutUint16(e.page[2:], uint16(n)) }

// appendEntry adds a segment to a leaf that has room for it.
func (e nodeEdit) appendEntry(le LeafEntry) {
	k := e.Len()
	e.setLen(k + 1)
	putLeafEntry(e.entry(k), int(e.dims), le)
}

// appendChild adds a child entry to an internal node that has room for it.
func (e nodeEdit) appendChild(box geom.Box, id pager.PageID) {
	k := e.Len()
	e.setLen(k + 1)
	putChild(e.entry(k), e.dual, box, id)
}

// appendRaw adds an entry given as its bytes, one entry long, to a node of
// its level that has room for it.
func (e nodeEdit) appendRaw(entry []byte) {
	k := e.Len()
	e.setLen(k + 1)
	copy(e.entry(k), entry)
}

// setChildBox overwrites internal entry k's box.
func (e nodeEdit) setChildBox(k int, box geom.Box) { putChildBox(e.entry(k), e.dual, box) }

// growChildBox widens internal entry k's box to cover o as well. Every
// stored bound is an exact f32 and covering only takes minima and maxima,
// so this equals recomputing the child's MBR after o joined it.
func (e nodeEdit) growChildBox(k int, o geom.Box) {
	var scratch [maxDims + 2]geom.Interval
	box := geom.Box(scratch[:len(o)])
	e.ChildBox(k, box)
	box.CoverInPlace(o)
	e.setChildBox(k, box)
}

// remove deletes entry k, closing the gap and zeroing the vacated slot.
func (e nodeEdit) remove(k int) {
	last := e.Len() - 1
	stride := int(e.stride)
	off := nodeHeaderSize + k*stride
	end := nodeHeaderSize + last*stride
	copy(e.page[off:end], e.page[off+stride:end+stride])
	clear(e.page[end : end+stride])
	e.setLen(last)
}

// EntryBox fills dst (Dims+2 extents, caller-owned) with leaf entry k's box
// in the dual key space: LeafEntry.Box read in place.
func (v NodeView) EntryBox(k int, dst geom.Box) {
	e := v.entry(k)
	d := int(v.dims)
	for i := 0; i < d; i++ {
		lo, hi := f32At(e, 8+4*i), f32At(e, 8+4*(d+i))
		if lo > hi {
			lo, hi = hi, lo
		}
		dst[i] = geom.Interval{Lo: lo, Hi: hi}
	}
	dst[d] = geom.IntervalOf(f32At(e, 8+8*d))
	dst[d+1] = geom.IntervalOf(f32At(e, 12+8*d))
}

// MBR fills dst (Dims+2 extents, caller-owned) with the minimum bounding
// box of the node's entries in the dual key space (EntryBox or ChildBox
// covered in entry order); empty for an empty node.
func (v NodeView) MBR(dst geom.Box) {
	for i := range dst {
		dst[i] = geom.EmptyInterval()
	}
	var scratch [maxDims + 2]geom.Interval
	box := geom.Box(scratch[:len(dst)])
	for k, n := 0, v.Len(); k < n; k++ {
		if v.Leaf() {
			v.EntryBox(k, box)
		} else {
			v.ChildBox(k, box)
		}
		dst.CoverInPlace(box)
	}
}

// chooseChild returns the index of the child whose box needs the least
// area enlargement to cover b (Guttman's ChooseLeaf heuristic), breaking
// ties by smaller area, then smaller margin, then lower index. The margin
// tiebreak matters in this domain: leaf-level boxes are often degenerate
// in one or more dimensions, making areas zero.
//
// Each child's bounds are read off the page once, in axis order, for its
// area, margin and cover area together: the values ChildBox, Box.Area,
// Box.Margin and Box.CoverArea compute, bit for bit (refChooseChild).
func (v NodeView) chooseChild(b geom.Box) int {
	d := int(v.dims)
	endTime := 8 * d // offset of the end-time extent: the single one unless dual
	if v.dual {
		endTime += 8
	}
	bm := measureOf(b)
	best := 0
	bestEnl, bestArea, bestMargin := -1.0, 0.0, 0.0
	for k, n := 0, v.Len(); k < n; k++ {
		e := v.entry(k)
		empty := false
		area, margin, cover := 1.0, 0.0, 1.0
		for i, q := range b {
			off := 8 * i
			if i > d {
				off = endTime
			}
			lo, hi := f32At(e, off), f32At(e, off+4)
			empty = empty || lo > hi
			area *= hi - lo
			margin += hi - lo
			cover *= max(hi, q.Hi) - min(lo, q.Lo)
		}
		switch {
		case empty:
			area, margin, cover = 0, 0, bm.area
		case bm.empty:
			cover = area
		}
		enl := cover - area
		if k == 0 {
			bestEnl, bestArea, bestMargin = enl, area, margin
			continue
		}
		if enl < bestEnl ||
			(enl == bestEnl && area < bestArea) ||
			(enl == bestEnl && area == bestArea && margin < bestMargin) {
			best, bestEnl, bestArea, bestMargin = k, enl, area, margin
		}
	}
	return best
}
