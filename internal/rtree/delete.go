package rtree

import (
	"fmt"

	"dynq/internal/geom"
	"dynq/internal/pager"
)

// Delete removes the segment with the given object id and validity start
// time (a motion update is uniquely identified by its object and start
// time, since an object's segments never overlap in time). It returns
// ErrNotFound if no such segment is indexed, leaving the tree — ModSeq
// included — untouched.
//
// The paper's workload is insert-only (motion updates append segments);
// deletion is provided for library completeness using Guttman's
// condense-tree: under-full nodes are dissolved and their entries
// reinserted. A deletion that frees a page (a dissolved node, a shrunk
// root) notifies update listeners with UpdateReseed.
func (t *Tree) Delete(id ObjectID, tStart float64) error {
	return t.DeleteAt(id, tStart, nil)
}

// Path is the chain of pages from the root to the leaf holding a segment,
// as Find reports it.
type Path []pager.PageID

// DeleteAt is Delete for a caller that has just looked the segment up: it
// goes straight down path instead of searching, and searches after all if
// the tree changed since Find so that path no longer leads to the segment.
// A nil path is a plain Delete.
func (t *Tree) DeleteAt(id ObjectID, tStart float64, path Path) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	d := deletion{id: id, tStart: float64(float32(tStart))} // match on-disk quantization
	if err := t.delete(&d, path, nil); err != nil {
		return err
	}
	t.size--
	return nil
}

// Correct replaces the segment of object id that starts at tStart with seg
// — a dead-reckoning correction — under one acquisition of the tree lock.
// Coordinates are quantized as Insert quantizes them. path, when it still
// leads to the segment, spares the search, as for DeleteAt; otherwise the
// segment is looked for first where seg starts (Find's probe order).
//
// When the replacement's box lies inside the box the leaf's parent stores
// for it (or the leaf is the root), the leaf overwrites the entry in its
// slot: one descent, and one page write per level, each node of the path
// committed with the new stamp and its box recomputed only where the old
// entry lay on a face, so every stored box stays the tight cover of its
// child. Nothing dissolves or splits, and listeners hear one UpdateEntry
// for the new segment — what a delete and an insert that split nothing
// tell them. Otherwise, decided before anything is edited, Correct is
// DeleteAt followed by Insert. It returns ErrNotFound, changing nothing, if
// no such segment is indexed.
func (t *Tree) Correct(id ObjectID, tStart float64, path Path, seg geom.Segment) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.checkSegment(seg); err != nil {
		return err
	}
	d := deletion{id: id, tStart: float64(float32(tStart)), correct: true, repl: LeafEntry{ID: id, Seg: QuantizeSegment(seg)}}
	var scratch [maxDims + 2]geom.Interval
	if err := t.delete(&d, path, probeBox(d.repl.Seg.Start, d.tStart, scratch[:0])); err != nil {
		return err
	}
	if d.inPlace {
		t.notify(Update{Kind: UpdateEntry, Entry: d.repl})
		return nil
	}
	t.size--
	return t.insert(d.repl)
}

// delete removes d's target, searching down path first, and condenses the
// tree. When path does not lead to the target, it is looked for with at as
// Find's probe or, with a nil at, by start time alone. A correction's
// target may instead be overwritten in place (d.inPlace), which leaves
// nothing to condense. The caller holds the tree lock and accounts for
// the size.
func (t *Tree) delete(d *deletion, path Path, at geom.Box) error {
	if t.root == pager.InvalidPage {
		return ErrNotFound
	}
	// Sessions learn of freed pages however the deletion ends: a failure
	// after the free leaves their queues just as stale.
	defer func() {
		if d.freed {
			t.notify(Update{Kind: UpdateReseed})
		}
	}()

	var scratch [maxDims + 2]geom.Interval
	mbr := geom.Box(scratch[:t.cfg.boxDims()])
	found := false
	var err error
	if len(path) == t.height && path[0] == t.root {
		found, _, _, err = t.deleteRec(t.root, d, path[1:], nil, mbr)
	}
	if !found && err == nil {
		if at == nil {
			found, _, _, err = t.deleteRec(t.root, d, nil, nil, mbr)
		} else if path, found, err = t.findRec(t.root, d.id, d.tStart, at, nil); found && err == nil {
			found, _, _, err = t.deleteRec(t.root, d, path[1:], nil, mbr)
		}
	}
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
				if err := t.free(t.root, &d.condense); err != nil {
					return err
				}
				t.root = pager.InvalidPage
				t.height = 0
			}
			break
		}
		if count != 1 {
			break
		}
		if err := t.free(t.root, &d.condense); err != nil {
			return err
		}
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
	return nil
}

// Find looks up the segment with the given object id and validity start
// time — the read-only twin of Delete's descent, used by the write path to
// validate deletions before they are WAL-logged. If the segment is indexed
// it appends the pages from the root to the leaf holding it to path, for
// DeleteAt to follow.
//
// probe, when non-nil, is where the segment is expected to start (Dims
// coordinates): a correction's reinsertion supplies it. At every node the
// children whose box holds (probe, tStart) are searched first, then the
// others whose start-time extent admits tStart. Only the order changes:
// the children tried are those a nil probe tries, and since a segment is
// unique by (id, tStart) the path found is the same.
func (t *Tree) Find(id ObjectID, tStart float64, probe geom.Point, path Path) (_ Path, found bool, err error) {
	tStart = float64(float32(tStart)) // match on-disk quantization
	var scratch [maxDims + 2]geom.Interval
	var at geom.Box
	if probe != nil {
		if len(probe) != t.cfg.Dims {
			return path, false, fmt.Errorf("rtree: probe has %d dims, tree has %d", len(probe), t.cfg.Dims)
		}
		at = probeBox(probe, tStart, scratch[:0])
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.root == pager.InvalidPage {
		return path, false, nil
	}
	return t.findRec(t.root, id, tStart, at, path)
}

// probeBox appends (probe, tStart) to dst as a box in the dual key space:
// where findRec looks first.
func probeBox(probe geom.Point, tStart float64, dst geom.Box) geom.Box {
	for _, x := range probe {
		dst = append(dst, geom.IntervalOf(float64(float32(x))))
	}
	return append(dst, geom.IntervalOf(tStart), geom.UniverseInterval())
}

func (t *Tree) findRec(page pager.PageID, id ObjectID, tStart float64, at geom.Box, path Path) (_ Path, found bool, err error) {
	path = append(path, page)
	err = t.view(page, nil, func(v NodeView) (err error) {
		if v.Leaf() {
			for k := 0; k < v.Len() && !found; k++ {
				eid, eStart := v.EntryKey(k)
				found = eid == id && eStart == tStart
			}
			return nil
		}
		// Only a child whose start-time extent admits tStart can lead to
		// the segment. Pass 0 takes those whose box also holds at, pass 1
		// the rest: with no probe, all of them.
		pass := 0
		if at == nil {
			pass = 1
		}
		for ; pass < 2 && !found && err == nil; pass++ {
			for k := 0; k < v.Len() && !found && err == nil; k++ {
				if !v.ChildStartTimes(k).ContainsValue(tStart) || (at != nil && v.ChildOverlaps(k, at)) != (pass == 0) {
					continue
				}
				path, found, err = t.findRec(v.ChildID(k), id, tStart, at, path)
			}
		}
		return err
	})
	if !found {
		path = path[:len(path)-1]
	}
	return path, found, err
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

// free releases a node page on behalf of the deletion cd.
func (t *Tree) free(id pager.PageID, cd *condense) error {
	cd.freed = true
	return t.pool.Free(id)
}

// deleteRec removes d's target from the subtree rooted at page. The search
// reads pages in place and changes nothing until a leaf holds the target;
// from there back up, each node of the path is edited where it lies and
// committed, so every one of them takes the new stamp. With a non-nil hint
// — the pages of a Find path below this one — only that chain is searched.
// It reports whether the target was found; if so, count is the subtree
// root's remaining entry count and changed whether its box may have shrunk,
// in which case mbr (caller-owned, Dims+2 extents) holds the new box.
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
func (t *Tree) deleteRec(page pager.PageID, d *deletion, hint Path, old, mbr geom.Box) (found bool, count int, changed bool, err error) {
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
		for i := 0; i < v.Len() && k < 0; i++ {
			if v.Leaf() {
				if eid, eStart := v.EntryKey(i); eid == d.id && eStart == d.tStart {
					k = i
					v.EntryBox(i, item)
				}
				continue
			}
			// We do not know the segment's spatial location, so without a
			// hint only the start-time axis prunes the search.
			var below Path
			if hint != nil {
				if v.ChildID(i) != hint[0] {
					continue
				}
				below = hint[1:]
			} else if !v.ChildStartTimes(i).ContainsValue(d.tStart) {
				continue
			}
			v.ChildBox(i, item)
			hit, n, ch, err := t.deleteRec(v.ChildID(i), d, below, item, mbr)
			if err != nil {
				return err
			}
			if hit {
				k, child, childLen, childChanged = i, v.ChildID(i), n, ch
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
		if err := t.free(child, &d.condense); err != nil {
			return false, 0, false, err
		}
	}
	ed, err := t.openEdit(page)
	if err != nil {
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
	return true, count, changed, t.commit(ed)
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
		id, err := t.pool.Alloc()
		if err != nil {
			return err
		}
		box := make(geom.Box, t.cfg.boxDims())
		if err := t.view(t.root, nil, func(v NodeView) error { v.MBR(box); return nil }); err != nil {
			return err
		}
		t.fresh(t.height).appendChild(box, t.root)
		if err := t.put(id); err != nil {
			return err
		}
		t.root = id
		t.height++
	}
	return t.graft(&it)
}
