package rtree

import (
	"dynq/internal/geom"
	"dynq/internal/pager"
	"dynq/internal/stats"
)

// The decoded node form. No path of the program reads or writes a node this
// way: a NodeView reads a page and a nodeEdit (or a page assembled by
// Tree.fresh) writes one. Node, Child, Tree.Load and DecodePage stay only
// because the nested benchmark module compiles against them, and the tests
// use Node as the reference form that pages and views are checked against.

// Child is an internal-node entry of a decoded Node: a subtree bounding box
// in dual space and the page holding the subtree root.
type Child struct {
	Box geom.Box
	ID  pager.PageID
}

// Node is the decoded form of one tree page.
type Node struct {
	ID    pager.PageID
	Level int    // 0 = leaf
	Stamp uint64 // modification sequence number at last write

	Children []Child     // populated iff Level > 0
	Entries  []LeafEntry // populated iff Level == 0
}

// Leaf reports whether the node is at the leaf level.
func (n *Node) Leaf() bool { return n.Level == 0 }

// Len returns the number of entries (children or segments).
func (n *Node) Len() int {
	if n.Leaf() {
		return len(n.Entries)
	}
	return len(n.Children)
}

// Load reads and decodes a node, charging one disk access to c as View
// does.
func (t *Tree) Load(id pager.PageID, c *stats.Counters) (*Node, error) {
	var n *Node
	err := t.View(id, c, func(v NodeView) error {
		n = v.node()
		return nil
	})
	return n, err
}

// DecodePage decodes one on-disk node page under cfg: the view, then every
// entry materialised. On arbitrary bytes it returns an error, never panics.
func DecodePage(cfg Config, id pager.PageID, buf []byte) (*Node, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	v, err := openView(cfg, id, buf)
	if err != nil {
		return nil, err
	}
	return v.node(), nil
}

// node materialises the whole node. All child boxes share one slab of
// extents and all leaf points one slab of coordinates (capacity-clipped, so
// appending to one never reaches its neighbour): three allocations per node
// whatever its fanout.
func (v NodeView) node() *Node {
	n := &Node{ID: v.id, Level: v.Level(), Stamp: v.Stamp()}
	d, count := int(v.dims), v.Len()
	if v.Leaf() {
		n.Entries = make([]LeafEntry, count)
		pts := make([]float64, 2*d*count)
		for k := range n.Entries {
			e := &n.Entries[k]
			e.Seg.Start, e.Seg.End, pts = pts[:0:d], pts[d:d:2*d], pts[2*d:]
			v.Entry(k, e)
		}
		return n
	}
	n.Children = make([]Child, count)
	slab := make(geom.Box, (d+2)*count)
	for k := range n.Children {
		c := &n.Children[k]
		c.Box, slab = slab[:d+2:d+2], slab[d+2:]
		v.ChildBox(k, c.Box)
		c.ID = v.ChildID(k)
	}
	return n
}
