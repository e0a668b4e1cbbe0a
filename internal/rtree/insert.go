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
	case res.split():
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
	id, err := t.pool.Alloc()
	if err != nil {
		return err
	}
	t.fresh(0).appendEntry(e)
	if err := t.put(id); err != nil {
		return err
	}
	t.root = id
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

// add appends the item to a node of its level that has room for it.
func (e nodeEdit) add(it *item) {
	if it.level == 0 {
		e.appendEntry(it.entry)
	} else {
		e.appendChild(it.box, it.child)
	}
}

// insertResult reports the outcome of placing an item in a subtree. mbr is
// the subtree root's box afterwards; nil means the common case — nothing
// split beneath, so the box merely grew to cover the item's. If the subtree
// root split (split reports it), sibling is the new node, already written,
// with box siblingMBR, and level is the level of both halves. notified says
// an update notification was already emitted deeper in the recursion.
type insertResult struct {
	mbr        geom.Box
	sibling    pager.PageID
	siblingMBR geom.Box
	level      int
	notified   bool
}

func (r insertResult) split() bool { return r.siblingMBR != nil }

// heightGrew grows the tree by one level after the old root split,
// sending the root-split notification. res.sibling is the old root's new
// sibling; running sessions that already explored the old root only miss
// nodes under the sibling, so notifying it keeps their queues complete.
func (t *Tree) heightGrew(res insertResult) error {
	// A failure here strands the sibling (its entries are unreachable from
	// the old root) like any write failing mid-split; the caller learns of
	// it and the engine above recovers from its log.
	id, err := t.pool.Alloc()
	if err != nil {
		return fmt.Errorf("rtree: grow root: %w", err)
	}
	root := t.fresh(res.level + 1)
	root.appendChild(res.mbr, t.root)
	root.appendChild(res.siblingMBR, res.sibling)
	if err := t.put(id); err != nil {
		return fmt.Errorf("rtree: grow root: %w", err)
	}
	t.root = id
	t.height++
	t.notify(Update{Kind: UpdateSubtree, Node: res.sibling, Level: res.level, Box: res.siblingMBR})
	return nil
}

func (t *Tree) notify(u Update) {
	for _, fn := range t.listeners {
		fn(u)
	}
}

// place descends from page to the node at it.level, choosing children on
// the page bytes, adds the item there and edits the nodes of the path in
// place on the way back up. A node with no room left is copied off its page
// on the way down (overfull), for the split one more entry would force. The
// caller holds the tree lock.
func (t *Tree) place(page pager.PageID, it *item) (insertResult, error) {
	var (
		here  bool     // this node takes the item
		full  nodeEdit // this node's overfull copy if it has no room left (else page is nil)
		ci    int      // otherwise: the child to descend into
		child pager.PageID
	)
	err := t.view(page, nil, func(v NodeView) error {
		here = v.Level() == it.level
		if v.Len() >= t.cfg.fanout(v.Leaf()) {
			full = overfull(v)
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
		if full.page != nil {
			full.add(it)
			s := tableOf(full.NodeView)
			copy(s.row(full.Len()-1), it.box) // as computed, like the boxes below
			return t.split(page, full, s)
		}
		ed, err := t.openEdit(page)
		if err != nil {
			return insertResult{}, err
		}
		ed.add(it)
		return insertResult{}, t.commit(ed)
	}

	res, err := t.place(child, it)
	if err != nil {
		return insertResult{}, err
	}
	if res.split() && full.page != nil {
		full.setChildBox(ci, res.mbr)
		full.appendChild(res.siblingMBR, res.sibling)
		// The split sees these two boxes as computed, not as stored: in the
		// single-axis layout a page keeps a child's time axes only as their
		// hull.
		s := tableOf(full.NodeView)
		copy(s.row(ci), res.mbr)
		copy(s.row(full.Len()-1), res.siblingMBR)
		return t.split(page, full, s)
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
		if res.split() {
			ed.appendChild(res.siblingMBR, res.sibling)
		}
		out.mbr = make(geom.Box, t.cfg.boxDims())
		ed.MBR(out.mbr)
	}
	if err := t.commit(ed); err != nil {
		return insertResult{}, err
	}
	if res.split() {
		// The split chain stops here: the child's sibling is the top-most
		// newly created node, covering every other new node and the
		// inserted segment (all were forced onto the insertion path).
		t.notify(Update{Kind: UpdateSubtree, Node: res.sibling, Level: res.level, Box: res.siblingMBR})
		out.notified = true
	}
	return out, nil
}

// overfull copies a full node off its page into a buffer one entry longer,
// so that the entry which overflows it can be appended with the edit
// primitives before the node is split.
func overfull(v NodeView) nodeEdit {
	buf := make([]byte, nodeHeaderSize+(v.Len()+1)*int(v.stride))
	copy(buf, v.page)
	v.page = buf
	return nodeEdit{NodeView: v}
}

// split divides full, page's node with one entry too many, by the quadratic
// split of s, the table of its boxes, and writes one group back to page and
// the other to a new sibling. The last entry, whose insertion caused the
// overflow, is forced into the sibling so that all nodes created by one
// insertion nest along the insertion path (Section 4.1's update management
// requires this).
func (t *Tree) split(page pager.PageID, full nodeEdit, s splitTable) (insertResult, error) {
	ga, gb := s.splitGroups(t.cfg.minFill(full.Level()))
	ga, gb = forceNewInB(ga, gb, full.Len()-1)
	sib, err := t.pool.Alloc()
	if err != nil {
		return insertResult{}, err
	}
	res := insertResult{sibling: sib, level: full.Level()}
	if res.mbr, err = t.writeHalf(page, full, &s, ga); err != nil {
		return insertResult{}, err
	}
	if res.siblingMBR, err = t.writeHalf(sib, full, &s, gb); err != nil {
		return insertResult{}, err
	}
	return res, nil
}

// writeHalf writes the entries of full that group lists, in its order and
// as full holds them, to page id as a new node, and returns their box: the
// cover of their rows of s.
func (t *Tree) writeHalf(id pager.PageID, full nodeEdit, s *splitTable, group []int) (geom.Box, error) {
	half := t.fresh(full.Level())
	mbr := geom.NewBox(s.axes)
	for _, i := range group {
		half.appendRaw(full.entry(i))
		mbr.CoverInPlace(s.row(i))
	}
	return mbr, t.put(id)
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
