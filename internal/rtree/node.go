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
	putF32 := func(v float32) {
		binary.LittleEndian.PutUint32(buf[off:], math.Float32bits(v))
		off += 4
	}
	if n.Leaf() {
		d := cfg.Dims
		for _, e := range n.Entries {
			binary.LittleEndian.PutUint64(buf[off:], uint64(e.ID))
			off += 8
			for i := 0; i < d; i++ {
				putF32(float32(e.Seg.Start[i]))
			}
			for i := 0; i < d; i++ {
				putF32(float32(e.Seg.End[i]))
			}
			putF32(float32(e.Seg.T.Lo))
			putF32(float32(e.Seg.T.Hi))
		}
		return nil
	}
	d := cfg.Dims
	for _, c := range n.Children {
		if len(c.Box) != d+2 {
			return fmt.Errorf("rtree: child box has %d dims, want %d", len(c.Box), d+2)
		}
		for i := 0; i < d; i++ {
			lo, hi := geom.IntervalToF32(c.Box[i])
			putF32(lo)
			putF32(hi)
		}
		ts, te := c.Box[d], c.Box[d+1]
		if cfg.DualTime {
			lo, hi := geom.IntervalToF32(ts)
			putF32(lo)
			putF32(hi)
			lo, hi = geom.IntervalToF32(te)
			putF32(lo)
			putF32(hi)
		} else {
			// Single-axis layout keeps only the union validity interval.
			hull := geom.Interval{Lo: ts.Lo, Hi: te.Hi}
			lo, hi := geom.IntervalToF32(hull)
			putF32(lo)
			putF32(hi)
		}
		binary.LittleEndian.PutUint32(buf[off:], uint32(c.ID))
		off += 4
	}
	return nil
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
	q := geom.Segment{
		T:     geom.Interval{Lo: float64(float32(s.T.Lo)), Hi: float64(float32(s.T.Hi))},
		Start: make(geom.Point, len(s.Start)),
		End:   make(geom.Point, len(s.End)),
	}
	for i := range s.Start {
		q.Start[i] = float64(float32(s.Start[i]))
	}
	for i := range s.End {
		q.End[i] = float64(float32(s.End[i]))
	}
	return q
}
