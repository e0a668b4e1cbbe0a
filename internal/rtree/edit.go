package rtree

import (
	"encoding/binary"
	"fmt"
	"slices"

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
	// log is the open batch's undo log, where each primitive first copies
	// the bytes it overwrites; nil on a page being assembled (fresh).
	log *undoLog
}

// openEdit borrows node id's page for modification into ed. Only commit
// makes the changes count; the caller opens an edit once it knows what to
// change. The edit is filled where it stays: nodeEdit is twelve words, and
// every primitive takes it by pointer.
func (t *Tree) openEdit(id pager.PageID, ed *nodeEdit) error {
	lease, err := t.pool.Edit(id)
	if err != nil {
		return fmt.Errorf("rtree: edit page %d: %w", id, err)
	}
	v, err := openView(t.cfg, id, lease.Page)
	if err != nil {
		return err
	}
	ed.NodeView, ed.lease, ed.log = v, lease, t.log
	return nil
}

// commit stamps the edited node with the current modification sequence and
// hands the page back, charging one page write. The edit must not be used
// afterwards.
func (t *Tree) commit(e *nodeEdit) error {
	e.save(4, 8)
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
// In a batch, a page the batch did not allocate is copied whole to the
// undo log first.
func (t *Tree) put(id pager.PageID) error {
	if t.log != nil && !slices.Contains(t.log.allocs, id) {
		lease, err := t.pool.Lend(id)
		if err != nil {
			return fmt.Errorf("rtree: load page %d: %w", id, err)
		}
		t.log.save(id, lease.Page, 0, pager.PageSize)
		lease.Release()
	}
	t.mc.AddPageWrite()
	return t.pool.Put(id, t.scratch)
}

// save copies n bytes of the page from off to the open batch's undo log
// before a primitive overwrites them.
func (e *nodeEdit) save(off, n int) {
	if e.log != nil {
		e.log.save(e.id, e.page, off, n)
	}
}

// saveEntries is save of entries k to k+n-1.
func (e *nodeEdit) saveEntries(k, n int) {
	e.save(nodeHeaderSize+k*int(e.stride), n*int(e.stride))
}

func (e *nodeEdit) setLen(n int) {
	e.save(2, 2)
	binary.LittleEndian.PutUint16(e.page[2:], uint16(n))
}

// appendEntry adds a segment to a leaf that has room for it.
func (e *nodeEdit) appendEntry(le LeafEntry) {
	k := e.Len()
	e.setLen(k + 1)
	e.setEntry(k, le)
}

// setEntry overwrites leaf entry k.
func (e *nodeEdit) setEntry(k int, le LeafEntry) {
	e.saveEntries(k, 1)
	putLeafEntry(e.entry(k), int(e.dims), le)
}

// appendChild adds a child entry to an internal node that has room for it.
func (e *nodeEdit) appendChild(box geom.Box, id pager.PageID) {
	k := e.Len()
	e.setLen(k + 1)
	e.saveEntries(k, 1)
	putChild(e.entry(k), e.dual, box, id)
}

// appendRaw adds an entry given as its bytes, one entry long, to a node of
// its level that has room for it.
func (e *nodeEdit) appendRaw(entry []byte) {
	k := e.Len()
	e.setLen(k + 1)
	e.saveEntries(k, 1)
	copy(e.entry(k), entry)
}

// setChildBox overwrites internal entry k's box.
func (e *nodeEdit) setChildBox(k int, box geom.Box) {
	e.saveEntries(k, 1)
	putChildBox(e.entry(k), e.dual, box)
}

// growChildBox widens internal entry k's box to cover o as well. Every
// stored bound is an exact f32 and covering only takes minima and maxima,
// so this equals recomputing the child's MBR after o joined it.
func (e *nodeEdit) growChildBox(k int, o geom.Box) {
	var scratch [maxDims + 2]geom.Interval
	box := geom.Box(scratch[:len(o)])
	e.ChildBox(k, box)
	box.CoverInPlace(o)
	e.setChildBox(k, box)
}

// remove deletes entry k, closing the gap and zeroing the vacated slot.
func (e *nodeEdit) remove(k int) {
	last := e.Len() - 1
	stride := int(e.stride)
	off := nodeHeaderSize + k*stride
	end := nodeHeaderSize + last*stride
	e.saveEntries(k, last-k+1)
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
// Box.Margin and Box.Cover(b).Area() compute, bit for bit (refChooseChild).
// At Dims 2 the four extents are read at fixed offsets from one row of the
// entry, with the same operations in the same order; other Dims take the
// per-axis loop.
func (v NodeView) chooseChild(b geom.Box) int {
	bEmpty, bArea := b.Empty(), b.Area()
	var p pick
	d := int(v.dims)
	if d == 2 {
		q0, q1, q2, q3 := b[0], b[1], b[2], b[3]
		// The row runs from x through the end-time extent, its last 8
		// bytes: x at 0, y at 8, start time at 16, and end time at 24, or
		// at 16 again in the single layout, which stores one time extent.
		// Its width is one of two constants, so slicing it off the page is
		// the only bounds check per child.
		w := 24
		if v.dual {
			w = 32
		}
		for k, n := 0, v.Len(); k < n; k++ {
			off := nodeHeaderSize + k*int(v.stride)
			row := v.page[off : off+w : off+w]
			r, t := (*[24]byte)(row)[:], row[len(row)-8:]
			lo0, hi0 := f32At(r, 0), f32At(r, 4)
			lo1, hi1 := f32At(r, 8), f32At(r, 12)
			lo2, hi2 := f32At(r, 16), f32At(r, 20)
			lo3, hi3 := f32At(t, 0), f32At(t, 4)
			w0, w1, w2, w3 := hi0-lo0, hi1-lo1, hi2-lo2, hi3-lo3
			area, margin := 1*w0*w1*w2*w3, 0+w0+w1+w2+w3
			cover := 1 * (max(hi0, q0.Hi) - min(lo0, q0.Lo)) * (max(hi1, q1.Hi) - min(lo1, q1.Lo)) *
				(max(hi2, q2.Hi) - min(lo2, q2.Lo)) * (max(hi3, q3.Hi) - min(lo3, q3.Lo))
			switch {
			case lo0 > hi0 || lo1 > hi1 || lo2 > hi2 || lo3 > hi3:
				area, margin, cover = 0, 0, bArea
			case bEmpty:
				cover = area
			}
			p.offer(k, cover-area, area, margin)
		}
		return p.k
	}
	endTime := 8 * d // offset of the end-time extent: the single one unless dual
	if v.dual {
		endTime += 8
	}
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
			area, margin, cover = 0, 0, bArea
		case bEmpty:
			cover = area
		}
		p.offer(k, cover-area, area, margin)
	}
	return p.k
}

// pick is chooseChild's choice so far: the child, its enlargement, its
// area and its margin.
type pick struct {
	k                 int
	enl, area, margin float64
}

// offer makes child k the choice if it is the first or beats the choice so
// far.
func (p *pick) offer(k int, enl, area, margin float64) {
	if k == 0 || enl < p.enl ||
		(enl == p.enl && area < p.area) ||
		(enl == p.enl && area == p.area && margin < p.margin) {
		*p = pick{k, enl, area, margin}
	}
}
