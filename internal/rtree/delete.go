package rtree

import (
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
	if t.root == pager.InvalidPage {
		return ErrNotFound
	}
	d := deletion{id: id, tStart: float64(float32(tStart))} // match on-disk quantization
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
		found, _, err = t.deleteRec(t.root, &d, path[1:], mbr)
	}
	if !found && err == nil {
		found, _, err = t.deleteRec(t.root, &d, nil, mbr)
	}
	if err != nil {
		return err
	}
	if !found {
		return ErrNotFound
	}
	t.size--

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
func (t *Tree) Find(id ObjectID, tStart float64, path Path) (_ Path, found bool, err error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.root == pager.InvalidPage {
		return path, false, nil
	}
	return t.findRec(t.root, id, float64(float32(tStart)), path)
}

func (t *Tree) findRec(page pager.PageID, id ObjectID, tStart float64, path Path) (_ Path, found bool, err error) {
	path = append(path, page)
	err = t.view(page, nil, func(v NodeView) (err error) {
		for k := 0; k < v.Len() && !found && err == nil; k++ {
			if v.Leaf() {
				eid, eStart := v.EntryKey(k)
				found = eid == id && eStart == tStart
			} else if v.ChildStartTimes(k).ContainsValue(tStart) {
				path, found, err = t.findRec(v.ChildID(k), id, tStart, path)
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

// deletion is one Delete's target and what its condense pass collects.
type deletion struct {
	id     ObjectID
	tStart float64
	condense
}

// free releases a node page on behalf of the deletion cd.
func (t *Tree) free(id pager.PageID, cd *condense) error {
	cd.freed = true
	return t.pool.Free(id)
}

// deleteRec removes d's target from the subtree rooted at page. The search
// reads pages in place and changes nothing until a leaf holds the target;
// from there back up, each node of the path is edited where it lies. With a
// non-nil hint — the pages of a Find path below this one — only that chain
// is searched. It reports whether the target was found; if so, count is the
// subtree root's remaining entry count and mbr (caller-owned, Dims+2
// extents) holds its updated MBR.
func (t *Tree) deleteRec(page pager.PageID, d *deletion, hint Path, mbr geom.Box) (found bool, count int, err error) {
	var (
		k        = -1 // the entry that is (leaf) or leads to (internal) the target
		level    int
		child    pager.PageID
		childLen int
	)
	err = t.view(page, nil, func(v NodeView) error {
		level = v.Level()
		for i := 0; i < v.Len() && k < 0; i++ {
			if v.Leaf() {
				if eid, eStart := v.EntryKey(i); eid == d.id && eStart == d.tStart {
					k = i
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
			hit, n, err := t.deleteRec(v.ChildID(i), d, below, mbr)
			if err != nil {
				return err
			}
			if hit {
				k, child, childLen = i, v.ChildID(i), n
			}
		}
		return nil
	})
	if err != nil || k < 0 {
		return false, 0, err
	}

	dissolve := level > 0 && childLen < t.cfg.minFill(level-1)
	switch {
	case level == 0:
		// Only now is it known that this deletion changes the tree.
		t.modSeq++
	case dissolve:
		// Condense: the child fell below minimum fill. Its entries travel
		// on as orphans.
		if err := t.view(child, nil, d.orphan); err != nil {
			return false, 0, err
		}
		if err := t.free(child, &d.condense); err != nil {
			return false, 0, err
		}
	}
	ed, err := t.openEdit(page)
	if err != nil {
		return false, 0, err
	}
	if level == 0 || dissolve {
		ed.remove(k)
	} else {
		ed.setChildBox(k, mbr)
	}
	count = ed.Len()
	ed.MBR(mbr)
	return true, count, t.commit(ed)
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
