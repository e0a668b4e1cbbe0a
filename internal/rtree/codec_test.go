package rtree

import (
	"encoding/binary"
	"fmt"

	"dynq/internal/geom"
	"dynq/internal/pager"
	"dynq/internal/stats"
)

// The node codec as the tree used it before every path read and wrote
// pages in place: encodeNode serialises a decoded Node whole, decodeNode
// materialises one, and load, write and alloc are a tree's pages in that
// form. The program keeps neither; they are the reference that views
// (FuzzDecodePage), the page kernels and the in-place write path
// (refwrite_test.go) are held to.

func encodeNode(cfg Config, n *Node, buf []byte) error {
	if len(buf) != pager.PageSize {
		return pager.ErrBadPageData
	}
	clear(buf)
	if n.Len() > cfg.fanout(n.Leaf()) {
		return fmt.Errorf("rtree: node %d has %d entries, page fits %d", n.ID, n.Len(), cfg.fanout(n.Leaf()))
	}
	if n.Level > 255 {
		return fmt.Errorf("rtree: level %d out of range", n.Level)
	}
	buf[0] = byte(n.Level)
	if cfg.DualTime {
		buf[1] = flagDualTime
	}
	binary.LittleEndian.PutUint16(buf[2:], uint16(n.Len()))
	binary.LittleEndian.PutUint64(buf[4:], n.Stamp)

	off := nodeHeaderSize
	if n.Leaf() {
		for _, e := range n.Entries {
			putLeafEntry(buf[off:], cfg.Dims, e)
			off += cfg.leafEntrySize()
		}
		return nil
	}
	for _, c := range n.Children {
		if len(c.Box) != cfg.boxDims() {
			return fmt.Errorf("rtree: child box has %d dims, want %d", len(c.Box), cfg.boxDims())
		}
		putChild(buf[off:off+cfg.internalEntrySize()], cfg.DualTime, c.Box, c.ID)
		off += cfg.internalEntrySize()
	}
	return nil
}

// decodeNode is DecodePage for a configuration known to be valid.
func decodeNode(cfg Config, id pager.PageID, buf []byte) (*Node, error) {
	v, err := openView(cfg, id, buf)
	if err != nil {
		return nil, err
	}
	return v.node(), nil
}

// MBR returns the minimum bounding box (dual space) of the node's
// entries; empty for an empty node.
func (n *Node) MBR(dims int) geom.Box {
	mbr := geom.NewBox(dims + 2)
	if n.Leaf() {
		var scratch [maxDims + 2]geom.Interval
		box := geom.Box(scratch[:dims+2])
		for _, e := range n.Entries {
			e.fillBox(box)
			mbr.CoverInPlace(box)
		}
	} else {
		for _, c := range n.Children {
			mbr.CoverInPlace(c.Box)
		}
	}
	return mbr
}

func (t *Tree) load(id pager.PageID, c *stats.Counters) (*Node, error) {
	var n *Node
	err := t.view(id, c, func(v NodeView) error {
		n = v.node()
		return nil
	})
	return n, err
}

func (t *Tree) write(n *Node) error {
	if err := encodeNode(t.cfg, n, t.scratch); err != nil {
		return err
	}
	t.mc.AddPageWrite()
	return t.pool.Put(n.ID, t.scratch)
}

func (t *Tree) alloc(level int) (*Node, error) {
	id, err := t.pool.Alloc()
	if err != nil {
		return nil, err
	}
	return &Node{ID: id, Level: level, Stamp: t.modSeq}, nil
}
