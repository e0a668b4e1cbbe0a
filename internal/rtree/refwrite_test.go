package rtree

import (
	"fmt"

	"dynq/internal/geom"
	"dynq/internal/pager"
)

// The write path as it was before pages were edited in place: every node on
// the path is loaded (materialised), mutated, its MBR recomputed from all
// its entries, and re-encoded whole through Tree.write. It is kept here,
// in tests only, as the reference the in-place path must match byte for
// byte (TestEditMatchesReference, FuzzEditMatchesReference). It shares the
// split, root-growth and condense bookkeeping with the tree proper; the
// one deliberate difference from the old code is that a deletion bumps the
// modification sequence only once its target is found.

func (t *Tree) refInsert(id ObjectID, seg geom.Segment) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(seg.Start) != t.cfg.Dims || len(seg.End) != t.cfg.Dims {
		return fmt.Errorf("rtree: segment has %d dims, tree has %d", len(seg.Start), t.cfg.Dims)
	}
	if seg.T.Empty() {
		return fmt.Errorf("rtree: segment has empty validity interval")
	}
	e := LeafEntry{ID: id, Seg: QuantizeSegment(seg)}
	t.modSeq++
	if t.root == pager.InvalidPage {
		if err := t.plantRoot(e); err != nil {
			return err
		}
		t.size = 1
		t.notify(Update{Kind: UpdateEntry, Entry: e})
		return nil
	}
	res, err := t.refInsertEntry(t.root, e)
	if err != nil {
		return err
	}
	t.size++
	switch {
	case res.sibling != nil:
		return t.heightGrew(res)
	case !res.notified:
		t.notify(Update{Kind: UpdateEntry, Entry: e})
	}
	return nil
}

func (t *Tree) refInsertEntry(page pager.PageID, e LeafEntry) (insertResult, error) {
	n, err := t.load(page, nil)
	if err != nil {
		return insertResult{}, err
	}
	n.Stamp = t.modSeq
	if n.Leaf() {
		n.Entries = append(n.Entries, e)
		if len(n.Entries) <= t.cfg.MaxLeafEntries() {
			if err := t.write(n); err != nil {
				return insertResult{}, err
			}
			return insertResult{mbr: n.MBR(t.cfg.Dims)}, nil
		}
		return t.splitLeaf(n, len(n.Entries)-1)
	}
	ci := refChooseChild(n.Children, e.Box(t.cfg.Dims))
	res, err := t.refInsertEntry(n.Children[ci].ID, e)
	if err != nil {
		return insertResult{}, err
	}
	return t.refAbsorb(n, ci, res)
}

func (t *Tree) refAbsorb(n *Node, ci int, res insertResult) (insertResult, error) {
	n.Children[ci].Box = res.mbr
	if res.sibling == nil {
		if err := t.write(n); err != nil {
			return insertResult{}, err
		}
		return insertResult{mbr: n.MBR(t.cfg.Dims), notified: res.notified}, nil
	}
	n.Children = append(n.Children, Child{Box: res.siblingMBR, ID: res.sibling.ID})
	if len(n.Children) <= t.cfg.MaxInternalEntries() {
		if err := t.write(n); err != nil {
			return insertResult{}, err
		}
		t.notify(Update{Kind: UpdateSubtree, Node: res.sibling.ID, Level: res.sibling.Level, Box: res.siblingMBR})
		return insertResult{mbr: n.MBR(t.cfg.Dims), notified: true}, nil
	}
	return t.splitInternal(n, len(n.Children)-1)
}

// refChooseChild is chooseChild on decoded children, one allocated cover
// box per child as Box.Enlargement used to build.
func refChooseChild(children []Child, b geom.Box) int {
	best := 0
	bestEnl, bestArea, bestMargin := -1.0, 0.0, 0.0
	for i, c := range children {
		enl := c.Box.Cover(b).Area() - c.Box.Area()
		area := c.Box.Area()
		margin := c.Box.Margin()
		if i == 0 {
			bestEnl, bestArea, bestMargin = enl, area, margin
			continue
		}
		if enl < bestEnl ||
			(enl == bestEnl && area < bestArea) ||
			(enl == bestEnl && area == bestArea && margin < bestMargin) {
			best, bestEnl, bestArea, bestMargin = i, enl, area, margin
		}
	}
	return best
}

func (t *Tree) refDelete(id ObjectID, tStart float64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.root == pager.InvalidPage {
		return ErrNotFound
	}
	tStart = float64(float32(tStart))
	var cd condense
	defer func() {
		if cd.freed {
			t.notify(Update{Kind: UpdateReseed})
		}
	}()
	found, _, err := t.refDeleteRec(t.root, id, tStart, &cd)
	if err != nil {
		return err
	}
	if !found {
		return ErrNotFound
	}
	t.size--
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
	for k, ch := range cd.subtrees {
		if err := t.refReinsertSubtree(ch, cd.levels[k]); err != nil {
			return err
		}
	}
	for _, e := range cd.entries {
		if err := t.refReinsertEntry(e); err != nil {
			return err
		}
	}
	return nil
}

func (t *Tree) refDeleteRec(page pager.PageID, id ObjectID, tStart float64, cd *condense) (bool, geom.Box, error) {
	n, err := t.load(page, nil)
	if err != nil {
		return false, nil, err
	}
	if n.Leaf() {
		for i, e := range n.Entries {
			if e.ID == id && e.Seg.T.Lo == tStart {
				t.modSeq++
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
		ch := n.Children[ci]
		if ch.Box[t.cfg.Dims].Lo > tStart || ch.Box[t.cfg.Dims].Hi < tStart {
			continue
		}
		found, childMBR, err := t.refDeleteRec(ch.ID, id, tStart, cd)
		if err != nil {
			return false, nil, err
		}
		if !found {
			continue
		}
		childNode, err := t.load(ch.ID, nil)
		if err != nil {
			return false, nil, err
		}
		if childNode.Len() < t.cfg.minFill(childNode.Level) {
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

func (t *Tree) refReinsertEntry(e LeafEntry) error {
	if t.root == pager.InvalidPage {
		return t.plantRoot(e)
	}
	res, err := t.refInsertEntry(t.root, e)
	if err != nil {
		return err
	}
	if res.sibling != nil {
		return t.heightGrew(res)
	}
	return nil
}

func (t *Tree) refReinsertSubtree(ch Child, level int) error {
	if t.root == pager.InvalidPage {
		t.root = ch.ID
		t.height = level + 1
		return nil
	}
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
	res, err := t.refInsertChildAt(t.root, t.height-1, ch, level)
	if err != nil {
		return err
	}
	if res.sibling != nil {
		return t.heightGrew(res)
	}
	return nil
}

func (t *Tree) refInsertChildAt(page pager.PageID, level int, ch Child, targetLevel int) (insertResult, error) {
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
	ci := refChooseChild(n.Children, ch.Box)
	res, err := t.refInsertChildAt(n.Children[ci].ID, level-1, ch, targetLevel)
	if err != nil {
		return insertResult{}, err
	}
	return t.refAbsorb(n, ci, res)
}
