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
		if err := t.plantRoot(e); err != nil {
			return err
		}
		t.size = 1
		t.notify(Update{Kind: UpdateEntry, Entry: e})
		return nil
	}

	var scratch [maxDims + 2]geom.Interval
	it := item{box: scratch[:t.cfg.boxDims()], entry: e}
	e.fillBox(it.box)
	res, err := t.place(t.root, &it)
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

// plantRoot makes e the only entry of an empty tree's first leaf.
func (t *Tree) plantRoot(e LeafEntry) error {
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

// item is what a descent places: a segment into a leaf or, when a
// deletion grafts an orphaned subtree back, a child entry into an internal
// node.
type item struct {
	box   geom.Box     // the item's box in the dual key space
	level int          // level of the node that takes it: 0 for a segment
	entry LeafEntry    // level == 0
	child pager.PageID // level > 0
}

// insertResult reports the outcome of placing an item in a subtree. mbr is
// the subtree root's box afterwards; nil means the common case — nothing
// split beneath, so the box merely grew to cover the item's. If the subtree
// root split, sibling is the new node (already persisted) with its MBR.
// notified says an update notification was already emitted deeper in the
// recursion.
type insertResult struct {
	mbr        geom.Box
	sibling    *Node
	siblingMBR geom.Box
	notified   bool
}

// heightGrew grows the tree by one level after the old root split,
// sending the root-split notification. res.sibling is the old root's new
// sibling; running sessions that already explored the old root only miss
// nodes under the sibling, so notifying it keeps their queues complete.
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
		Kind:  UpdateSubtree,
		Node:  res.sibling.ID,
		Level: res.sibling.Level,
		Box:   res.siblingMBR,
	})
	return nil
}

func (t *Tree) notify(u Update) {
	for _, fn := range t.listeners {
		fn(u)
	}
}

// place descends from page to the node at it.level, choosing children on
// the page bytes, adds the item there and edits the nodes of the path in
// place on the way back up. A node is materialised only when one more
// entry overflows it: the split policies need all its boxes at once. The
// caller holds the tree lock.
func (t *Tree) place(page pager.PageID, it *item) (insertResult, error) {
	var (
		here  bool  // this node takes the item
		full  *Node // this node, materialised because it has no room left
		ci    int   // otherwise: the child to descend into
		child pager.PageID
	)
	err := t.view(page, nil, func(v NodeView) error {
		here = v.Level() == it.level
		room := t.cfg.MaxInternalEntries()
		if v.Leaf() {
			room = t.cfg.MaxLeafEntries()
		}
		if v.Len() >= room {
			full = v.node()
			full.Stamp = t.modSeq
		}
		if here {
			return nil
		}
		if v.Level() < it.level || v.Len() == 0 {
			return fmt.Errorf("rtree: node %d (level %d, %d entries) cannot lead to level %d", page, v.Level(), v.Len(), it.level)
		}
		ci = v.chooseChild(it.box)
		child = v.ChildID(ci)
		return nil
	})
	if err != nil {
		return insertResult{}, err
	}

	if here {
		switch {
		case full == nil:
			ed, err := t.openEdit(page)
			if err != nil {
				return insertResult{}, err
			}
			if it.level == 0 {
				ed.appendEntry(it.entry)
			} else {
				ed.appendChild(it.box, it.child)
			}
			return insertResult{}, t.commit(ed)
		case it.level == 0:
			full.Entries = append(full.Entries, it.entry)
			return t.splitLeaf(full, len(full.Entries)-1)
		default:
			full.Children = append(full.Children, Child{Box: it.box, ID: it.child})
			return t.splitInternal(full, len(full.Children)-1)
		}
	}

	res, err := t.place(child, it)
	if err != nil {
		return insertResult{}, err
	}
	if res.sibling != nil && full != nil {
		full.Children[ci].Box = res.mbr
		full.Children = append(full.Children, Child{Box: res.siblingMBR, ID: res.sibling.ID})
		return t.splitInternal(full, len(full.Children)-1)
	}
	ed, err := t.openEdit(page)
	if err != nil {
		return insertResult{}, err
	}
	out := insertResult{notified: res.notified}
	if res.mbr == nil {
		ed.growChildBox(ci, it.box)
	} else {
		// Something split beneath: the child's box may have shrunk, so it
		// is replaced and this node's own box computed afresh.
		ed.setChildBox(ci, res.mbr)
		if res.sibling != nil {
			ed.appendChild(res.siblingMBR, res.sibling.ID)
		}
		out.mbr = make(geom.Box, t.cfg.boxDims())
		ed.MBR(out.mbr)
	}
	if err := t.commit(ed); err != nil {
		return insertResult{}, err
	}
	if res.sibling != nil {
		// The split chain stops here: the child's sibling is the top-most
		// newly created node, covering every other new node and the
		// inserted segment (all were forced onto the insertion path).
		t.notify(Update{
			Kind:  UpdateSubtree,
			Node:  res.sibling.ID,
			Level: res.sibling.Level,
			Box:   res.siblingMBR,
		})
		out.notified = true
	}
	return out, nil
}

// splitLeaf splits an over-full leaf. newIdx is the index of the entry
// whose insertion caused the overflow: it is forced into the *new* node so
// that all nodes created by one insertion nest along the insertion path
// (Section 4.1's update management requires this).
func (t *Tree) splitLeaf(n *Node, newIdx int) (insertResult, error) {
	s := leafTable(n.Entries, t.cfg.boxDims())
	ga, gb := s.splitGroups(t.cfg.minLeafEntries())
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
	s := childTable(n.Children, t.cfg.boxDims())
	ga, gb := s.splitGroups(t.cfg.minInternalEntries())
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
// The split is symmetric in the two groups, so this costs
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
