package rtree

import (
	"dynq/internal/geom"
	"dynq/internal/pager"
)

// Delete removes the segment with the given object id and validity start
// time (a motion update is uniquely identified by its object and start
// time, since an object's segments never overlap in time). It returns
// ErrNotFound if no such segment is indexed, leaving the tree — ModSeq
// included — untouched. It is a batch of one: a failure leaves the tree as
// it was.
//
// The paper's workload is insert-only (motion updates append segments);
// deletion is provided for library completeness using Guttman's
// condense-tree: under-full nodes are dissolved and their entries
// reinserted. A deletion that frees a page (a dissolved node, a shrunk
// root) notifies update listeners with UpdateReseed.
func (t *Tree) Delete(id ObjectID, tStart float64) error {
	return t.one(func(b Batch) error { return b.Delete(id, tStart) })
}

// delete removes d's target, found in one descent that searches where at
// lies first (deleteRec), and condenses the tree. A correction's target may
// instead be overwritten in place (d.inPlace), which leaves nothing to
// condense. The caller holds an open batch and accounts for the size.
func (t *Tree) delete(d *deletion, at geom.Box) error {
	if t.root == pager.InvalidPage {
		return ErrNotFound
	}
	var scratch [maxDims + 2]geom.Interval
	mbr := geom.Box(scratch[:t.cfg.boxDims()])
	found, _, _, err := t.deleteRec(t.root, d, at, nil, mbr)
	if err != nil {
		return err
	}
	if !found {
		return ErrNotFound
	}
	if d.inPlace {
		return nil
	}

	// Shrink the root: an internal root with one child is replaced by it;
	// an empty leaf root empties the tree.
	for {
		var (
			leaf  bool
			count int
			child pager.PageID
		)
		err := t.view(t.root, nil, func(v NodeView) error {
			leaf, count = v.Leaf(), v.Len()
			if !leaf && count == 1 {
				child = v.ChildID(0)
			}
			return nil
		})
		if err != nil {
			return err
		}
		if leaf {
			if count == 0 {
				t.free(t.root, &d.condense)
				t.root = pager.InvalidPage
				t.height = 0
			}
			break
		}
		if count != 1 {
			break
		}
		t.free(t.root, &d.condense)
		t.root = child
		t.height--
	}

	// Reinsert orphans. Subtrees go back at their original level so the
	// tree stays balanced; their entries keep their boxes.
	for _, it := range d.subtrees {
		if err := t.reinsertSubtree(it); err != nil {
			return err
		}
	}
	for _, e := range d.entries {
		if err := t.reinsertEntry(e); err != nil {
			return err
		}
	}
	if d.freed {
		// Sessions still holding a freed page id must start again.
		t.notify(Update{Kind: UpdateReseed})
	}
	return nil
}

// probeBox appends (probe, tStart) to dst as a box in the dual key space:
// where deleteRec looks first.
func probeBox(probe geom.Point, tStart float64, dst geom.Box) geom.Box {
	for _, x := range probe {
		dst = append(dst, geom.IntervalOf(float64(float32(x))))
	}
	return append(dst, geom.IntervalOf(tStart), geom.UniverseInterval())
}

// condense is what one deletion's condense-tree pass accumulates: the
// contents of dissolved nodes, to be reinserted, and whether any page was
// freed.
type condense struct {
	entries  []LeafEntry // their points cut from slab
	slab     Slab
	subtrees []item // each the child entry that grafts a subtree back
	freed    bool
}

// orphan collects the entries of a node about to be dissolved.
func (cd *condense) orphan(v NodeView) error {
	if v.Leaf() {
		for k := 0; k < v.Len(); k++ {
			cd.entries = append(cd.entries, v.Keep(k, &cd.slab))
		}
		return nil
	}
	axes := int(v.dims) + 2
	boxes := make(geom.Box, v.Len()*axes)
	for k := 0; k < v.Len(); k++ {
		box := boxes[k*axes : (k+1)*axes : (k+1)*axes]
		v.ChildBox(k, box)
		cd.subtrees = append(cd.subtrees, item{box: box, level: v.Level(), child: v.ChildID(k)})
	}
	return nil
}

// deletion is one Delete's target and what its condense pass collects. A
// correction also carries the replacement entry; inPlace says it fitted
// and overwrote the target.
type deletion struct {
	id      ObjectID
	tStart  float64
	correct bool
	repl    LeafEntry
	inPlace bool
	condense
}

// free releases a node page on behalf of the deletion cd when the batch
// commits: until then the page stays allocated, so that Rollback need not
// take it back.
func (t *Tree) free(id pager.PageID, cd *condense) {
	cd.freed = true
	t.log.frees = append(t.log.frees, id)
}

// deleteRec removes d's target from the subtree rooted at page. The search
// reads pages in place and changes nothing until a leaf holds the target;
// from there back up, each node of the path is edited where it lies and
// committed, so every one of them takes the new stamp. Only a child whose
// start-time extent admits the target's start time can lead to it (where
// the segment lies is unknown); with at set, those whose box also holds at
// are searched first, then the rest. Since the target is unique by
// (id, tStart), the order changes only how soon it is found. It reports
// whether the target was found; if so, count is the subtree root's
// remaining entry count and changed whether its box may have shrunk, in
// which case mbr (caller-owned, Dims+2 extents) holds the new box.
//
// old is the subtree root's box as its parent stores it, nil at the root,
// whose box nobody keeps. A stored box is the tight cover of its child, so
// removing an item (a leaf entry, or a dissolved child's box) that lies on
// none of old's faces, or shrinking such a child, leaves the cover as it
// was: the node recomputes its box only when the item reaches a face.
//
// A correction's replacement that lies inside the leaf's old box (or whose
// leaf is the root) overwrites the target in its slot instead: the entry
// count stays, so nothing dissolves, and the leaf's box can only shrink,
// which the face rule covers as for a removal. The test is made at the
// leaf, before the first edit.
func (t *Tree) deleteRec(page pager.PageID, d *deletion, at, old, mbr geom.Box) (found bool, count int, changed bool, err error) {
	var (
		k            = -1 // the entry that is (leaf) or leads to (internal) the target
		level        int
		child        pager.PageID
		childLen     int
		childChanged bool
		scratch      [maxDims + 2]geom.Interval
	)
	item := geom.Box(scratch[:len(mbr)]) // the target's box, or its child's stored box
	err = t.view(page, nil, func(v NodeView) error {
		level = v.Level()
		if v.Leaf() {
			for i := 0; i < v.Len() && k < 0; i++ {
				if eid, eStart := v.EntryKey(i); eid == d.id && eStart == d.tStart {
					k = i
					v.EntryBox(i, item)
				}
			}
			return nil
		}
		pass := 0 // pass 0 takes the children that hold at, pass 1 the rest
		if at == nil {
			pass = 1
		}
		for ; pass < 2 && k < 0; pass++ {
			for i := 0; i < v.Len() && k < 0; i++ {
				if !v.ChildStartTimes(i).ContainsValue(d.tStart) || (at != nil && v.ChildOverlaps(i, at)) != (pass == 0) {
					continue
				}
				v.ChildBox(i, item)
				hit, n, ch, err := t.deleteRec(v.ChildID(i), d, at, item, mbr)
				if err != nil {
					return err
				}
				if hit {
					k, child, childLen, childChanged = i, v.ChildID(i), n, ch
				}
			}
		}
		return nil
	})
	if err != nil || k < 0 {
		return false, 0, false, err
	}

	dissolve := level > 0 && !d.inPlace && childLen < t.cfg.minFill(level-1)
	switch {
	case level == 0:
		// Only now is it known that this deletion changes the tree.
		t.modSeq++
		if d.correct {
			var b [maxDims + 2]geom.Interval
			box := geom.Box(b[:len(mbr)])
			d.repl.fillBox(box)
			d.inPlace = old == nil || old.Contains(box)
		}
	case dissolve:
		// Condense: the child fell below minimum fill. Its entries travel
		// on as orphans.
		if err := t.view(child, nil, d.orphan); err != nil {
			return false, 0, false, err
		}
		t.free(child, &d.condense)
	}
	var ed nodeEdit
	if err := t.openEdit(page, &ed); err != nil {
		return false, 0, false, err
	}
	removed := (level == 0 && !d.inPlace) || dissolve
	switch {
	case level == 0 && d.inPlace:
		ed.setEntry(k, d.repl)
	case removed:
		ed.remove(k)
	case childChanged:
		ed.setChildBox(k, mbr)
	}
	count = ed.Len()
	if changed = (level == 0 || removed || childChanged) && old != nil && onFace(item, old); changed {
		ed.MBR(mbr)
	}
	return true, count, changed, t.commit(&ed)
}

// onFace reports whether item reaches one of box's faces on some axis:
// whether box, covering item among others, may shrink once item is gone.
func onFace(item, box geom.Box) bool {
	for i, iv := range item {
		if iv.Lo <= box[i].Lo || iv.Hi >= box[i].Hi {
			return true
		}
	}
	return false
}

// reinsertEntry adds a leaf entry back without bumping size (it was never
// decremented for orphans) or re-quantizing.
func (t *Tree) reinsertEntry(e LeafEntry) error {
	if t.root == pager.InvalidPage {
		return t.plantRoot(e)
	}
	return t.graft(&item{box: e.Box(t.cfg.Dims), entry: e})
}

// graft places an orphan back under the root, growing the tree if the
// root splits.
func (t *Tree) graft(it *item) error {
	res, err := t.place(t.root, it)
	if err != nil {
		return err
	}
	if res.split() {
		return t.heightGrew(res)
	}
	return nil
}

// reinsertSubtree grafts an orphaned subtree back at its original level:
// it.child is the subtree's root and it.level the level of the node that
// takes it.
func (t *Tree) reinsertSubtree(it item) error {
	if t.root == pager.InvalidPage {
		t.root = it.child
		t.height = it.level
		return nil
	}
	// The tree shrank below the subtree's height: raise it until it can
	// adopt the subtree.
	for t.height <= it.level {
		id, err := t.allocPage()
		if err != nil {
			return err
		}
		box := make(geom.Box, t.cfg.boxDims())
		if err := t.view(t.root, nil, func(v NodeView) error { v.MBR(box); return nil }); err != nil {
			return err
		}
		root := t.fresh(t.height)
		root.appendChild(box, t.root)
		if err := t.put(id); err != nil {
			return err
		}
		t.root = id
		t.height++
	}
	return t.graft(&it)
}
