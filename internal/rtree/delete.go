package rtree

import (
	"dynq/internal/geom"
	"dynq/internal/pager"
)

// Delete removes the segment with the given object id and validity start
// time (a motion update is uniquely identified by its object and start
// time, since an object's segments never overlap in time). It returns
// ErrNotFound if no such segment is indexed.
//
// The paper's workload is insert-only (motion updates append segments);
// deletion is provided for library completeness using Guttman's
// condense-tree: under-full nodes are dissolved and their entries
// reinserted. A deletion that frees a page (a dissolved node, a shrunk
// root) notifies update listeners with UpdateReseed.
func (t *Tree) Delete(id ObjectID, tStart float64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.root == pager.InvalidPage {
		return ErrNotFound
	}
	tStart = float64(float32(tStart)) // match on-disk quantization
	t.modSeq++

	var cd condense
	// Sessions learn of freed pages however the deletion ends: a failure
	// after the free leaves their queues just as stale.
	defer func() {
		if cd.freed {
			t.notify(Update{Kind: UpdateReseed})
		}
	}()

	found, _, err := t.deleteRec(t.root, id, tStart, &cd)
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
		n, err := t.load(t.root, nil)
		if err != nil {
			return err
		}
		if n.Leaf() {
			if len(n.Entries) == 0 {
				if err := t.free(t.root, &cd); err != nil {
					return err
				}
				t.root = pager.InvalidPage
				t.height = 0
			}
			break
		}
		if len(n.Children) != 1 {
			break
		}
		child := n.Children[0].ID
		if err := t.free(t.root, &cd); err != nil {
			return err
		}
		t.root = child
		t.height--
	}

	// Reinsert orphans. Subtrees go back at their original level so the
	// tree stays balanced; their entries keep their boxes.
	for k, ch := range cd.subtrees {
		if err := t.reinsertSubtree(ch, cd.levels[k]); err != nil {
			return err
		}
	}
	for _, e := range cd.entries {
		if err := t.reinsertEntry(e); err != nil {
			return err
		}
	}
	return nil
}

// Contains reports whether a segment with the given object id and
// validity start time is indexed — the read-only twin of Delete's
// descent, used by the write path to validate deletions before they are
// WAL-logged.
func (t *Tree) Contains(id ObjectID, tStart float64) (bool, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.root == pager.InvalidPage {
		return false, nil
	}
	return t.containsRec(t.root, id, float64(float32(tStart)))
}

func (t *Tree) containsRec(page pager.PageID, id ObjectID, tStart float64) (found bool, err error) {
	err = t.view(page, nil, func(v NodeView) (err error) {
		for k := 0; k < v.Len() && !found && err == nil; k++ {
			if v.Leaf() {
				eid, eStart := v.EntryKey(k)
				found = eid == id && eStart == tStart
			} else if v.ChildStartTimes(k).ContainsValue(tStart) {
				found, err = t.containsRec(v.ChildID(k), id, tStart)
			}
		}
		return err
	})
	return found, err
}

// condense is what one deletion's condense-tree pass accumulates: the
// contents of dissolved nodes, to be reinserted, and whether any page was
// freed.
type condense struct {
	entries  []LeafEntry
	subtrees []Child
	levels   []int // level of subtrees[k]'s root
	freed    bool
}

// free releases a node page on behalf of the deletion cd.
func (t *Tree) free(id pager.PageID, cd *condense) error {
	cd.freed = true
	return t.pool.Free(id)
}

// deleteRec removes the target from the subtree rooted at page. It
// returns whether the target was found and the subtree's updated MBR
// (empty if the node dissolved into orphans).
func (t *Tree) deleteRec(page pager.PageID, id ObjectID, tStart float64, cd *condense) (bool, geom.Box, error) {
	n, err := t.load(page, nil)
	if err != nil {
		return false, nil, err
	}
	if n.Leaf() {
		for i, e := range n.Entries {
			if e.ID == id && e.Seg.T.Lo == tStart {
				n.Entries = append(n.Entries[:i], n.Entries[i+1:]...)
				n.Stamp = t.modSeq
				if err := t.write(n); err != nil {
					return false, nil, err
				}
				return true, n.MBR(t.cfg.Dims), nil
			}
		}
		return false, n.MBR(t.cfg.Dims), nil
	}

	for ci := range n.Children {
		// Descend only into children whose box could hold the segment's
		// start time; we do not know the spatial location, so the temporal
		// axes prune. (Deletion is not on the paper's critical path.)
		ch := n.Children[ci]
		if ch.Box[t.cfg.Dims].Lo > tStart || ch.Box[t.cfg.Dims].Hi < tStart {
			continue
		}
		found, childMBR, err := t.deleteRec(ch.ID, id, tStart, cd)
		if err != nil {
			return false, nil, err
		}
		if !found {
			continue
		}
		// Condense: dissolve the child if it fell below minimum fill.
		childNode, err := t.load(ch.ID, nil)
		if err != nil {
			return false, nil, err
		}
		minFill := t.cfg.minLeafEntries()
		if !childNode.Leaf() {
			minFill = t.cfg.minInternalEntries()
		}
		if childNode.Len() < minFill {
			if childNode.Leaf() {
				cd.entries = append(cd.entries, childNode.Entries...)
			} else {
				for _, gc := range childNode.Children {
					cd.subtrees = append(cd.subtrees, gc)
					cd.levels = append(cd.levels, childNode.Level-1)
				}
			}
			if err := t.free(ch.ID, cd); err != nil {
				return false, nil, err
			}
			n.Children = append(n.Children[:ci], n.Children[ci+1:]...)
		} else {
			n.Children[ci].Box = childMBR
		}
		n.Stamp = t.modSeq
		if err := t.write(n); err != nil {
			return false, nil, err
		}
		return true, n.MBR(t.cfg.Dims), nil
	}
	return false, n.MBR(t.cfg.Dims), nil
}

// reinsertEntry adds a leaf entry back without bumping size (it was never
// decremented for orphans) or re-quantizing.
func (t *Tree) reinsertEntry(e LeafEntry) error {
	if t.root == pager.InvalidPage {
		rootNode, err := t.alloc(0)
		if err != nil {
			return err
		}
		rootNode.Entries = []LeafEntry{e}
		if err := t.write(rootNode); err != nil {
			return err
		}
		t.root = rootNode.ID
		t.height = 1
		return nil
	}
	res, err := t.insertEntry(t.root, e)
	if err != nil {
		return err
	}
	if res.sibling != nil {
		return t.heightGrew(res)
	}
	return nil
}

// reinsertSubtree grafts an orphaned subtree back at its original level.
func (t *Tree) reinsertSubtree(ch Child, level int) error {
	if t.root == pager.InvalidPage || t.height-1 < level+1 {
		// The tree shrank below the subtree's height: make the subtree a
		// child of a new root chain. Simplest sound option: grow a root
		// that holds the current root (if any) and the subtree.
		if t.root == pager.InvalidPage {
			t.root = ch.ID
			t.height = level + 1
			return nil
		}
		// Raise the current tree until it can adopt the subtree.
		for t.height-1 < level+1 {
			newRoot, err := t.alloc(t.height)
			if err != nil {
				return err
			}
			rn, err := t.load(t.root, nil)
			if err != nil {
				return err
			}
			newRoot.Children = []Child{{Box: rn.MBR(t.cfg.Dims), ID: t.root}}
			if err := t.write(newRoot); err != nil {
				return err
			}
			t.root = newRoot.ID
			t.height++
		}
	}
	res, err := t.insertChildAt(t.root, t.height-1, ch, level)
	if err != nil {
		return err
	}
	if res.sibling != nil {
		return t.heightGrew(res)
	}
	return nil
}

// insertChildAt descends to the node at targetLevel+1 and adds the child
// entry there, splitting on overflow like a normal insertion.
func (t *Tree) insertChildAt(page pager.PageID, level int, ch Child, targetLevel int) (insertResult, error) {
	n, err := t.load(page, nil)
	if err != nil {
		return insertResult{}, err
	}
	n.Stamp = t.modSeq
	if level == targetLevel+1 {
		n.Children = append(n.Children, ch)
		if len(n.Children) <= t.cfg.MaxInternalEntries() {
			if err := t.write(n); err != nil {
				return insertResult{}, err
			}
			return insertResult{mbr: n.MBR(t.cfg.Dims)}, nil
		}
		return t.splitInternal(n, len(n.Children)-1)
	}
	ci := chooseChild(n.Children, ch.Box)
	res, err := t.insertChildAt(n.Children[ci].ID, level-1, ch, targetLevel)
	if err != nil {
		return insertResult{}, err
	}
	return t.absorbChildResult(n, ci, res)
}
