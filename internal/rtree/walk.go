package rtree

import (
	"fmt"
	"math"

	"dynq/internal/geom"
	"dynq/internal/pager"
)

// TreeStats summarizes the physical shape of the tree, mirroring the
// figures the paper reports for its index (Section 5: fanout 145/127,
// height 3).
type TreeStats struct {
	Height        int
	Segments      int
	LeafNodes     int
	InternalNodes int
	AvgLeafFill   float64 // mean entries per leaf / max leaf entries
	AvgIntFill    float64
	MaxLeafFan    int
	MaxIntFan     int
}

// PageReader fills buf (pager.PageSize bytes) with page id for a Walk.
// skip leaves the page and its subtree unchecked; an error is a fault of
// the page.
type PageReader func(id pager.PageID, buf []byte) (skip bool, err error)

// Walk is the one check of a tree's structure: recovery, the background
// scrub and Tree.Stats/Validate all walk with it, and differ only in how
// they read a page. It visits each page reachable from the root once,
// depth first, in steps of a page budget, and a page passes when
//   - its id is below the page count,
//   - no other path reached it before,
//   - it opens as a view (its entry count within the fanout),
//   - its level is its parent's minus one,
//   - it is a leaf or holds a child, and
//   - every child box or segment box on it lies inside its entry in the
//     parent.
//
// The children of a page that passes are walked next; a page that fails
// ends the Step that read it, and its subtree is not walked.
type Walk struct {
	meta    Meta
	pages   int
	read    PageReader
	stack   []walkFrame
	reached map[pager.PageID]struct{}
	buf     []byte

	leaves, internals         int
	leafEntries, childEntries int
}

// inside reports whether entry k's box lies inside b (Dims+2 extents), as
// b.Contains decides on the box EntryBox or ChildBox fills, from the page's
// values compared where they lie. A leaf entry's box is never empty: each
// spatial end point and each validity bound must lie in its extent of b,
// and a NaN never does. A child box with an empty extent is empty, and an
// empty box lies inside every box.
func (v NodeView) inside(k int, b geom.Box) bool {
	e := v.entry(k)
	d := int(v.dims)
	if v.Leaf() {
		for i := 0; i < d; i++ {
			x0, x1, c := f32At(e, 8+4*i), f32At(e, 8+4*(d+i)), b[i]
			if !(c.Lo <= x0 && c.Lo <= x1 && x0 <= c.Hi && x1 <= c.Hi) {
				return false
			}
		}
		return b[d].ContainsValue(f32At(e, 8+8*d)) && b[d+1].ContainsValue(f32At(e, 12+8*d))
	}
	ts, te := v.timeAxes(e)
	in := b[d].Lo <= ts.Lo && ts.Hi <= b[d].Hi && b[d+1].Lo <= te.Lo && te.Hi <= b[d+1].Hi
	empty := ts.Empty() || te.Empty()
	for i := 0; i < d; i++ {
		x, c := intervalAt(e, 8*i), b[i]
		in = in && c.Lo <= x.Lo && x.Hi <= c.Hi
		empty = empty || x.Empty()
	}
	return in || empty
}

// walkFrame is a page the walk has yet to check: where its parent points
// to it, and with which entry box (nil for the root).
type walkFrame struct {
	id     pager.PageID
	level  int
	within geom.Box
}

// NewWalk starts a check of the tree m describes, over a store of pages
// pages, reading each page with read. m.Config must be valid.
func NewWalk(m Meta, pages int, read PageReader) *Walk {
	w := &Walk{
		meta:    m,
		pages:   pages,
		read:    read,
		reached: make(map[pager.PageID]struct{}),
		buf:     make([]byte, pager.PageSize),
	}
	if m.Root != pager.InvalidPage {
		w.stack = append(w.stack, walkFrame{id: m.Root, level: m.Height - 1})
	}
	return w
}

// Step checks pages until it has checked budget of them, the walk is
// done, or a page fails; it returns how many it checked and the failure.
// Stepping again goes on past a failed page.
func (w *Walk) Step(budget int) (n int, err error) {
	for ; n < budget && len(w.stack) > 0; n++ {
		fr := w.stack[len(w.stack)-1]
		w.stack = w.stack[:len(w.stack)-1]
		if err := w.visit(fr); err != nil {
			return n + 1, err
		}
	}
	return n, nil
}

// visit checks one page against its frame, then stacks its children.
func (w *Walk) visit(fr walkFrame) error {
	if int64(fr.id) >= int64(w.pages) {
		return fmt.Errorf("rtree: child pointer %d beyond allocated pages (%d)", fr.id, w.pages)
	}
	if _, ok := w.reached[fr.id]; ok {
		return fmt.Errorf("rtree: page %d reached through two tree paths", fr.id)
	}
	w.reached[fr.id] = struct{}{}
	if skip, err := w.read(fr.id, w.buf); skip || err != nil {
		return err
	}
	v, err := openView(w.meta.Config, fr.id, w.buf)
	if err != nil {
		return err
	}
	if v.Level() != fr.level {
		return fmt.Errorf("rtree: page %d stores level %d, tree position implies %d", fr.id, v.Level(), fr.level)
	}
	if !v.Leaf() && v.Len() == 0 {
		return fmt.Errorf("rtree: internal page %d has no children", fr.id)
	}
	for k := 0; fr.within != nil && k < v.Len(); k++ {
		if !v.inside(k, fr.within) {
			return fmt.Errorf("rtree: page %d entry %d escapes its parent entry %v", fr.id, k, fr.within)
		}
	}
	if v.Leaf() {
		w.leaves++
		w.leafEntries += v.Len()
		return nil
	}
	w.internals++
	w.childEntries += v.Len()
	bd := w.meta.Config.boxDims()
	boxes := make(geom.Box, v.Len()*bd) // the children's entry boxes, one slab
	for k := 0; k < v.Len(); k++ {
		within := boxes[k*bd : (k+1)*bd : (k+1)*bd]
		v.ChildBox(k, within)
		w.stack = append(w.stack, walkFrame{id: v.ChildID(k), level: fr.level - 1, within: within})
	}
	return nil
}

// Done reports whether every reachable page has been checked.
func (w *Walk) Done() bool { return len(w.stack) == 0 }

// Reached is the set of pages the walk has reached so far, whether they
// passed, failed or were skipped; pointers past the page count are not
// in it.
func (w *Walk) Reached() map[pager.PageID]struct{} { return w.reached }

// Run checks the whole tree, then that it holds the segments its
// metadata counts, and returns its shape.
func (w *Walk) Run() (TreeStats, error) {
	if _, err := w.Step(math.MaxInt); err != nil {
		return TreeStats{}, err
	}
	if w.leafEntries != w.meta.Size {
		return TreeStats{}, fmt.Errorf("rtree: tree holds %d segments, metadata claims %d", w.leafEntries, w.meta.Size)
	}
	st := TreeStats{
		Height:        w.meta.Height,
		Segments:      w.leafEntries,
		LeafNodes:     w.leaves,
		InternalNodes: w.internals,
		MaxLeafFan:    w.meta.Config.MaxLeafEntries(),
		MaxIntFan:     w.meta.Config.MaxInternalEntries(),
	}
	if w.leaves > 0 {
		st.AvgLeafFill = float64(w.leafEntries) / float64(w.leaves*st.MaxLeafFan)
	}
	if w.internals > 0 {
		st.AvgIntFill = float64(w.childEntries) / float64(w.internals*st.MaxIntFan)
	}
	return st, nil
}

// Stats checks the whole tree (Walk), reading it through the pool at no
// query's cost, and returns its shape.
func (t *Tree) Stats() (TreeStats, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	m := Meta{Root: t.root, Height: t.height, Size: t.size, Config: t.cfg}
	// The store refuses an id it never allocated; a MemStore's NumPages
	// is no bound on its ids once pages are freed.
	return NewWalk(m, int(pager.InvalidPage), func(id pager.PageID, buf []byte) (bool, error) {
		return false, t.view(id, nil, func(v NodeView) error {
			copy(buf, v.page)
			return nil
		})
	}).Run()
}

// Validate checks the structural invariants of the tree (Walk) and
// returns the first violation found, nil when sound.
func (t *Tree) Validate() error {
	_, err := t.Stats()
	return err
}
