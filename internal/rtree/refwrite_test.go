package rtree

import (
	"fmt"
	"math"

	"dynq/internal/geom"
	"dynq/internal/pager"
)

// The write path as it was before pages were edited in place: every node on
// the path is loaded (materialised), mutated, its MBR recomputed from all
// its entries, and re-encoded whole through Tree.write; a split, a new root
// and a bulk load build Nodes and write them the same way. It is kept here,
// in tests only, as the reference the in-place path must match byte for
// byte (TestEditMatchesReference, FuzzEditMatchesReference,
// TestBulkLoadMatchesReference). It splits with refSplitGroups, the plain
// R*-axis split on geom.Box values, and shares only the bulk loader's
// ordering with the tree proper. Each operation runs in a batch of its own,
// for the batch's handling of frees (at Commit) and notifications (queued
// until Commit); the pages it writes go through Tree.write, not the undo
// log. The deliberate differences from the old code are that a deletion
// bumps the modification sequence only once its target is found, and that
// a freed page is released only when the operation ends.

func (t *Tree) refInsert(id ObjectID, seg geom.Segment) error {
	defer t.Begin().Commit()
	return t.refInsertOp(id, seg)
}

func (t *Tree) refInsertOp(id ObjectID, seg geom.Segment) error {
	if len(seg.Start) != t.cfg.Dims || len(seg.End) != t.cfg.Dims {
		return fmt.Errorf("rtree: segment has %d dims, tree has %d", len(seg.Start), t.cfg.Dims)
	}
	if seg.T.Empty() {
		return fmt.Errorf("rtree: segment has empty validity interval")
	}
	e := LeafEntry{ID: id, Seg: QuantizeSegment(seg)}
	t.modSeq++
	if t.root == pager.InvalidPage {
		if err := t.refPlantRoot(e); err != nil {
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
	case res.split():
		return t.refHeightGrew(res)
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
		return t.refSplitLeaf(n, len(n.Entries)-1)
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
	if !res.split() {
		if err := t.write(n); err != nil {
			return insertResult{}, err
		}
		return insertResult{mbr: n.MBR(t.cfg.Dims), notified: res.notified}, nil
	}
	n.Children = append(n.Children, Child{Box: res.siblingMBR, ID: res.sibling})
	if len(n.Children) <= t.cfg.MaxInternalEntries() {
		if err := t.write(n); err != nil {
			return insertResult{}, err
		}
		t.notify(Update{Kind: UpdateSubtree, Node: res.sibling, Level: res.level, Box: res.siblingMBR})
		return insertResult{mbr: n.MBR(t.cfg.Dims), notified: true}, nil
	}
	return t.refSplitInternal(n, len(n.Children)-1)
}

// refChooseChild is chooseChild on decoded children, with one allocated
// cover box per child.
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
	defer t.Begin().Commit()
	return t.refDeleteOp(id, tStart)
}

func (t *Tree) refDeleteOp(id ObjectID, tStart float64) error {
	if t.root == pager.InvalidPage {
		return ErrNotFound
	}
	tStart = float64(float32(tStart))
	var cd refCondense
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
				if err := t.refFree(t.root, &cd); err != nil {
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
		if err := t.refFree(t.root, &cd); err != nil {
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

func (t *Tree) refDeleteRec(page pager.PageID, id ObjectID, tStart float64, cd *refCondense) (bool, geom.Box, error) {
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
			if err := t.refFree(ch.ID, cd); err != nil {
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

// refCorrect is Correct on decoded nodes. It finds the path to the target
// first, then tests the replacement against the box the leaf's parent
// stores. If it fits (or the leaf is the root), the entry is replaced and
// every node of the path rewritten with its MBR recomputed whole; if not,
// the target is deleted and the replacement inserted.
func (t *Tree) refCorrect(id ObjectID, tStart float64, seg geom.Segment) error {
	defer t.Begin().Commit()
	if len(seg.Start) != t.cfg.Dims || len(seg.End) != t.cfg.Dims {
		return fmt.Errorf("rtree: segment has %d dims, tree has %d", len(seg.Start), t.cfg.Dims)
	}
	if seg.T.Empty() {
		return fmt.Errorf("rtree: segment has empty validity interval")
	}
	e := LeafEntry{ID: id, Seg: QuantizeSegment(seg)}
	tStart = float64(float32(tStart))
	var path []*Node // root to leaf
	var slots []int  // the entry of path[i] that is, or leads to, the target
	found := false
	var err error
	if t.root != pager.InvalidPage {
		found, err = t.refLocate(t.root, id, tStart, &path, &slots)
	}
	if err != nil || !found {
		if err == nil {
			err = ErrNotFound
		}
		return err
	}
	last := len(path) - 1
	if last > 0 && !path[last-1].Children[slots[last-1]].Box.Contains(e.Box(t.cfg.Dims)) {
		if err := t.refDeleteOp(id, tStart); err != nil {
			return err
		}
		return t.refInsertOp(id, seg)
	}
	t.modSeq++
	path[last].Entries[slots[last]] = e
	for i := last; i >= 0; i-- {
		n := path[i]
		if i < last {
			n.Children[slots[i]].Box = path[i+1].MBR(t.cfg.Dims)
		}
		n.Stamp = t.modSeq
		if err := t.write(n); err != nil {
			return err
		}
	}
	t.notify(Update{Kind: UpdateEntry, Entry: e})
	return nil
}

// refLocate appends to path the decoded nodes from page down to the leaf
// holding the target, searched by start time as refDeleteRec searches, and
// to slots the entry taken at each.
func (t *Tree) refLocate(page pager.PageID, id ObjectID, tStart float64, path *[]*Node, slots *[]int) (bool, error) {
	n, err := t.load(page, nil)
	if err != nil {
		return false, err
	}
	*path = append(*path, n)
	*slots = append(*slots, -1)
	at := len(*slots) - 1
	if n.Leaf() {
		for i, e := range n.Entries {
			if e.ID == id && e.Seg.T.Lo == tStart {
				(*slots)[at] = i
				return true, nil
			}
		}
	}
	for ci, ch := range n.Children {
		if ch.Box[t.cfg.Dims].Lo > tStart || ch.Box[t.cfg.Dims].Hi < tStart {
			continue
		}
		found, err := t.refLocate(ch.ID, id, tStart, path, slots)
		if err != nil || found {
			(*slots)[at] = ci
			return found, err
		}
	}
	*path, *slots = (*path)[:at], (*slots)[:at]
	return false, nil
}

func (t *Tree) refReinsertEntry(e LeafEntry) error {
	if t.root == pager.InvalidPage {
		return t.refPlantRoot(e)
	}
	res, err := t.refInsertEntry(t.root, e)
	if err != nil {
		return err
	}
	if res.split() {
		return t.refHeightGrew(res)
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
	if res.split() {
		return t.refHeightGrew(res)
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
		return t.refSplitInternal(n, len(n.Children)-1)
	}
	ci := refChooseChild(n.Children, ch.Box)
	res, err := t.refInsertChildAt(n.Children[ci].ID, level-1, ch, targetLevel)
	if err != nil {
		return insertResult{}, err
	}
	return t.refAbsorb(n, ci, res)
}

// refCondense is condense as the reference collects it: decoded children
// and the level of each one's subtree.
type refCondense struct {
	entries  []LeafEntry
	subtrees []Child
	levels   []int // level of subtrees[k]'s root
	freed    bool
}

func (t *Tree) refFree(id pager.PageID, cd *refCondense) error {
	cd.freed = true
	t.log.frees = append(t.log.frees, id)
	return nil
}

func (t *Tree) refPlantRoot(e LeafEntry) error {
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

func (t *Tree) refHeightGrew(res insertResult) error {
	newRoot, err := t.alloc(res.level + 1)
	if err != nil {
		return fmt.Errorf("rtree: grow root: %w", err)
	}
	newRoot.Children = []Child{
		{Box: res.mbr, ID: t.root},
		{Box: res.siblingMBR, ID: res.sibling},
	}
	if err := t.write(newRoot); err != nil {
		return fmt.Errorf("rtree: grow root: %w", err)
	}
	t.root = newRoot.ID
	t.height++
	t.notify(Update{Kind: UpdateSubtree, Node: res.sibling, Level: res.level, Box: res.siblingMBR})
	return nil
}

// refSplitLeaf splits an over-full decoded leaf. newIdx is the index of the
// entry whose insertion caused the overflow: it is forced into the new node.
func (t *Tree) refSplitLeaf(n *Node, newIdx int) (insertResult, error) {
	boxes := make([]geom.Box, len(n.Entries))
	for i, e := range n.Entries {
		boxes[i] = e.Box(t.cfg.Dims)
	}
	ga, gb := refSplitGroups(boxes, t.cfg.minLeafEntries())
	ga, gb = forceNewInB(ga, gb, newIdx)

	sib, err := t.alloc(0)
	if err != nil {
		return insertResult{}, err
	}
	oldEntries := n.Entries
	n.Entries = pickLeafEntries(oldEntries, ga)
	sib.Entries = pickLeafEntries(oldEntries, gb)
	sib.Stamp = t.modSeq
	if err := t.write(n); err != nil {
		return insertResult{}, err
	}
	if err := t.write(sib); err != nil {
		return insertResult{}, err
	}
	return insertResult{
		mbr:        n.MBR(t.cfg.Dims),
		sibling:    sib.ID,
		siblingMBR: sib.MBR(t.cfg.Dims),
	}, nil
}

// refSplitInternal splits an over-full decoded internal node; newIdx is the
// index of the child entry that caused the overflow.
func (t *Tree) refSplitInternal(n *Node, newIdx int) (insertResult, error) {
	boxes := make([]geom.Box, len(n.Children))
	for i, c := range n.Children {
		boxes[i] = c.Box
	}
	ga, gb := refSplitGroups(boxes, t.cfg.minInternalEntries())
	ga, gb = forceNewInB(ga, gb, newIdx)

	sib, err := t.alloc(n.Level)
	if err != nil {
		return insertResult{}, err
	}
	oldChildren := n.Children
	n.Children = pickChildren(oldChildren, ga)
	sib.Children = pickChildren(oldChildren, gb)
	sib.Stamp = t.modSeq
	if err := t.write(n); err != nil {
		return insertResult{}, err
	}
	if err := t.write(sib); err != nil {
		return insertResult{}, err
	}
	return insertResult{
		mbr:        n.MBR(t.cfg.Dims),
		sibling:    sib.ID,
		siblingMBR: sib.MBR(t.cfg.Dims),
		level:      n.Level,
	}, nil
}

func pickLeafEntries(src []LeafEntry, idx []int) []LeafEntry {
	out := make([]LeafEntry, len(idx))
	for k, i := range idx {
		out[k] = src[i]
	}
	return out
}

func pickChildren(src []Child, idx []int) []Child {
	out := make([]Child, len(idx))
	for k, i := range idx {
		out[k] = src[i]
	}
	return out
}

// refBulkLoad is BulkLoad building each node as a Node and writing it
// through Tree.write.
func refBulkLoad(cfg Config, store pager.Store, entries []LeafEntry) (*Tree, error) {
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

	level := make([]Child, 0, (len(quant)+leafCap-1)/leafCap)
	for lo := 0; lo < len(order); lo += leafCap {
		hi := min(lo+leafCap, len(order))
		n, err := t.alloc(0)
		if err != nil {
			return nil, err
		}
		n.Entries = make([]LeafEntry, 0, hi-lo)
		for _, k := range order[lo:hi] {
			n.Entries = append(n.Entries, quant[k])
		}
		if err := t.write(n); err != nil {
			return nil, err
		}
		level = append(level, Child{Box: n.MBR(cfg.Dims), ID: n.ID})
	}
	t.size = len(quant)
	t.height = 1
	for len(level) > 1 {
		next := make([]Child, 0, (len(level)+intCap-1)/intCap)
		for lo := 0; lo < len(level); lo += intCap {
			hi := min(lo+intCap, len(level))
			n, err := t.alloc(t.height)
			if err != nil {
				return nil, err
			}
			n.Children = append([]Child(nil), level[lo:hi]...)
			if err := t.write(n); err != nil {
				return nil, err
			}
			next = append(next, Child{Box: n.MBR(cfg.Dims), ID: n.ID})
		}
		level = next
		t.height++
	}
	t.root = level[0].ID
	return t, nil
}
