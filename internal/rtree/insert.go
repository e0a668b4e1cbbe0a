package rtree

import (
	"fmt"

	"dynq/internal/geom"
	"dynq/internal/pager"
)

// Insert adds one motion segment for an object. Coordinates are quantized
// to the on-disk float32 precision first. Registered update listeners are
// notified per Section 4.1's update management: with the lone segment when
// an existing leaf absorbed it, or with the top-most newly created node
// when splits occurred (all new nodes are forced onto the insertion path,
// so that single node covers every new node and the new segment).
func (t *Tree) Insert(id ObjectID, seg geom.Segment) error {
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
		t.size = 1
		t.notify(Update{Kind: UpdateEntry, Entry: e})
		return nil
	}

	res, err := t.insertEntry(t.root, e)
	if err != nil {
		return err
	}
	t.size++

	switch {
	case res.sibling != nil:
		// The split chain reached the root: grow the tree. The root's new
		// sibling is the top new node; heightGrew sends the notification.
		return t.heightGrew(res)
	case !res.notified:
		// No structural change anywhere: announce just the new segment.
		t.notify(Update{Kind: UpdateEntry, Entry: e})
	}
	return nil
}

// insertResult reports the outcome of inserting into a subtree: the
// subtree root's updated MBR; if the subtree root split, the new sibling
// (already persisted) with its MBR; and whether an update notification was
// already emitted deeper in the recursion.
type insertResult struct {
	mbr        geom.Box
	sibling    *Node
	siblingMBR geom.Box
	notified   bool
}

// heightGrew grows the tree by one level after the old root split,
// sending the root-split notification. res.sibling is the old root's new
// sibling; running sessions that already explored the old root only miss
// nodes under the sibling, so notifying it (with RootSplit set, letting
// sessions opt to rebuild per Section 4.1) keeps their queues complete.
func (t *Tree) heightGrew(res insertResult) error {
	// A failure here strands the sibling (its entries are unreachable from
	// the old root) like any write failing mid-split; the caller learns of
	// it and the engine above recovers from its log.
	newRoot, err := t.alloc(res.sibling.Level + 1)
	if err != nil {
		return fmt.Errorf("rtree: grow root: %w", err)
	}
	newRoot.Children = []Child{
		{Box: res.mbr, ID: t.root},
		{Box: res.siblingMBR, ID: res.sibling.ID},
	}
	if err := t.write(newRoot); err != nil {
		return fmt.Errorf("rtree: grow root: %w", err)
	}
	t.root = newRoot.ID
	t.height++
	t.notify(Update{
		Kind:      UpdateSubtree,
		Node:      res.sibling.ID,
		Level:     res.sibling.Level,
		Box:       res.siblingMBR,
		RootSplit: true,
	})
	return nil
}

func (t *Tree) notify(u Update) {
	for _, fn := range t.listeners {
		fn(u)
	}
}

// insertEntry descends to the leaf level and inserts e, splitting on
// overflow. The caller holds the tree lock.
func (t *Tree) insertEntry(page pager.PageID, e LeafEntry) (insertResult, error) {
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

	eBox := e.Box(t.cfg.Dims)
	ci := chooseChild(n.Children, eBox)
	res, err := t.insertEntry(n.Children[ci].ID, e)
	if err != nil {
		return insertResult{}, err
	}
	return t.absorbChildResult(n, ci, res)
}

// absorbChildResult updates child ci's box after a lower-level insertion
// and, if the child split, adds the new sibling entry (splitting this node
// in turn on overflow).
func (t *Tree) absorbChildResult(n *Node, ci int, res insertResult) (insertResult, error) {
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
		// The split chain stops here: the child's sibling is the top-most
		// newly created node, covering every other new node and the
		// inserted segment (all were forced onto the insertion path).
		t.notify(Update{
			Kind:  UpdateSubtree,
			Node:  res.sibling.ID,
			Level: res.sibling.Level,
			Box:   res.siblingMBR,
		})
		return insertResult{mbr: n.MBR(t.cfg.Dims), notified: true}, nil
	}
	return t.splitInternal(n, len(n.Children)-1)
}

// splitLeaf splits an over-full leaf. newIdx is the index of the entry
// whose insertion caused the overflow: it is forced into the *new* node so
// that all nodes created by one insertion nest along the insertion path
// (Section 4.1's update management requires this).
func (t *Tree) splitLeaf(n *Node, newIdx int) (insertResult, error) {
	boxes := make([]geom.Box, len(n.Entries))
	for i, e := range n.Entries {
		boxes[i] = e.Box(t.cfg.Dims)
	}
	ga, gb := splitGroups(t.cfg.Split, boxes, t.cfg.minLeafEntries())
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
		sibling:    sib,
		siblingMBR: sib.MBR(t.cfg.Dims),
	}, nil
}

// splitInternal splits an over-full internal node; newIdx is the index of
// the child entry that caused the overflow (forced into the new node, as
// in splitLeaf).
func (t *Tree) splitInternal(n *Node, newIdx int) (insertResult, error) {
	boxes := make([]geom.Box, len(n.Children))
	for i, c := range n.Children {
		boxes[i] = c.Box
	}
	ga, gb := splitGroups(t.cfg.Split, boxes, t.cfg.minInternalEntries())
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
		sibling:    sib,
		siblingMBR: sib.MBR(t.cfg.Dims),
	}, nil
}

// forceNewInB swaps the two groups if the newly inserted index landed in
// group a, so the caller can always treat group b as the "new node" group.
// The split policies are symmetric in the two groups, so this costs
// nothing and does not alter the partition itself.
func forceNewInB(a, b []int, newIdx int) (ga, gb []int) {
	for _, i := range a {
		if i == newIdx {
			return b, a
		}
	}
	return a, b
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

// chooseChild returns the index of the child whose box needs the least
// area enlargement to cover b (Guttman's ChooseLeaf heuristic), breaking
// ties by smaller area, then smaller margin, then lower index. The margin
// tiebreak matters in this domain: leaf-level boxes are often degenerate
// in one or more dimensions, making areas zero.
func chooseChild(children []Child, b geom.Box) int {
	best := 0
	bestEnl, bestArea, bestMargin := -1.0, 0.0, 0.0
	for i, c := range children {
		enl := c.Box.Enlargement(b)
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
