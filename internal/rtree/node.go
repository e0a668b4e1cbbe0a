package rtree

import (
	"encoding/binary"
	"fmt"
	"math"

	"dynq/internal/geom"
	"dynq/internal/pager"
)

// On-disk node layout (little endian):
//
//	offset 0   uint8   level (0 = leaf)
//	offset 1   uint8   flags (bit0: dual temporal layout)
//	offset 2   uint16  entry count
//	offset 4   uint64  modification stamp
//	offset 12  4 bytes reserved
//	offset 16  entries
//
// Leaf entry (8 + (2d+2)·4 bytes): object id uint64, then f32 start
// coordinates, f32 end coordinates, f32 t_l, f32 t_h.
//
// Internal entry ((2d+2)·4 + 4 or (2d+4)·4 + 4 bytes): f32 lo/hi per
// spatial dimension, then either the single time extent (union of the
// subtree's validity intervals) or — in the dual layout — the start-time
// extent followed by the end-time extent, then the child page id uint32.
const nodeHeaderSize = 16

const flagDualTime = 1 << 0

func encodeNode(cfg Config, n *Node, buf []byte) error {
	if len(buf) != pager.PageSize {
		return pager.ErrBadPageData
	}
	clear(buf)
	var maxEntries int
	if n.Leaf() {
		maxEntries = cfg.MaxLeafEntries()
	} else {
		maxEntries = cfg.MaxInternalEntries()
	}
	if n.Len() > maxEntries {
		return fmt.Errorf("rtree: node %d has %d entries, page fits %d", n.ID, n.Len(), maxEntries)
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

func putF32(dst []byte, off int, v float32) {
	binary.LittleEndian.PutUint32(dst[off:], math.Float32bits(v))
}

// putLeafEntry encodes a leaf entry of d spatial dimensions at dst[0:].
func putLeafEntry(dst []byte, d int, e LeafEntry) {
	binary.LittleEndian.PutUint64(dst, uint64(e.ID))
	for i := 0; i < d; i++ {
		putF32(dst, 8+4*i, float32(e.Seg.Start[i]))
		putF32(dst, 8+4*(d+i), float32(e.Seg.End[i]))
	}
	putF32(dst, 8+8*d, float32(e.Seg.T.Lo))
	putF32(dst, 12+8*d, float32(e.Seg.T.Hi))
}

// putChildBox encodes a dual-space box at dst[0:] as an internal entry's
// bounds, rounded outward to f32. The single-axis layout keeps only the
// union validity interval.
func putChildBox(dst []byte, dual bool, box geom.Box) {
	d := len(box) - 2
	putInterval := func(off int, iv geom.Interval) {
		lo, hi := geom.IntervalToF32(iv)
		putF32(dst, off, lo)
		putF32(dst, off+4, hi)
	}
	for i := 0; i < d; i++ {
		putInterval(8*i, box[i])
	}
	if dual {
		putInterval(8*d, box[d])
		putInterval(8*d+8, box[d+1])
	} else {
		putInterval(8*d, geom.Interval{Lo: box[d].Lo, Hi: box[d+1].Hi})
	}
}

// putChild encodes a whole internal entry into dst, exactly one entry
// long: the box, then the child page.
func putChild(dst []byte, dual bool, box geom.Box, id pager.PageID) {
	putChildBox(dst, dual, box)
	binary.LittleEndian.PutUint32(dst[len(dst)-4:], uint32(id))
}

// DecodePage decodes one on-disk node page under cfg. It is the exported
// entry point for the recovery walk (which must inspect pages without a
// live tree) and for fuzzing: on arbitrary bytes it returns an error,
// never panics.
func DecodePage(cfg Config, id pager.PageID, buf []byte) (*Node, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return decodeNode(cfg, id, buf)
}

// decodeNode is "open the view, materialise every entry": the view owns
// the page format's header and bounds checks.
func decodeNode(cfg Config, id pager.PageID, buf []byte) (*Node, error) {
	v, err := openView(cfg, id, buf)
	if err != nil {
		return nil, err
	}
	return v.node(), nil
}

// QuantizeSegment rounds a segment's coordinates to float32, the on-disk
// key precision. Insert applies it, so a retrieved segment compares equal
// to the quantized form of the inserted one.
func QuantizeSegment(s geom.Segment) geom.Segment {
	pts := make(geom.Point, len(s.Start)+len(s.End)) // one slab, as geom.Segment.Clone
	q := geom.Segment{
		T:     geom.Interval{Lo: float64(float32(s.T.Lo)), Hi: float64(float32(s.T.Hi))},
		Start: pts[:len(s.Start):len(s.Start)],
		End:   pts[len(s.Start):],
	}
	for i := range s.Start {
		q.Start[i] = float64(float32(s.Start[i]))
	}
	for i := range s.End {
		q.End[i] = float64(float32(s.End[i]))
	}
	return q
}
