package rtree

import (
	"encoding/binary"
	"fmt"
	"math"

	"dynq/internal/geom"
	"dynq/internal/pager"
	"dynq/internal/stats"
)

// NodeView is a read-only view of one encoded node page: it answers
// questions about the node by reading the page bytes in place, so a query
// visits a node without materialising it. openView is the only parser of
// the page header; once it has accepted a page every accessor below is in
// bounds for 0 ≤ k < Len().
//
// A view aliases the page it was opened on. Views handed out by Tree.View
// die with the callback; nothing read through one may be retained without
// copying (Entry and ChildBox fill caller-owned storage for that reason).
//
// The view is four words on purpose: it is passed and received by value
// in the per-entry loops of every query. Accessors may take it by value,
// but nothing they inline may copy it through memory: a copy spills the
// registers with 8-, 4-, 2- and 1-byte stores and reloads them with 16-byte
// loads, which the CPU cannot forward from the narrower stores, so every
// call stalls until they drain. The view therefore has at most four fields
// (the compiler keeps no larger struct in registers), the layout bytes
// grouped in one; TestViewAccessorsDoNotStall reads the accessors' machine
// code and fails on such a reload.
type NodeView struct {
	page []byte // the whole page; header fields are read from it on demand
	id   pager.PageID
	entryLayout
}

// entryLayout is what openView derives from the tree's configuration and
// the page header to locate entries.
type entryLayout struct {
	stride uint16 // entry size at this node's level
	dims   uint8
	dual   bool
}

// openView validates a page against cfg and returns its view. It rejects
// a wrong page length, a temporal layout other than the tree's, and an
// entry count beyond the level's fanout — which is what bounds every
// later access.
func openView(cfg Config, id pager.PageID, buf []byte) (NodeView, error) {
	if len(buf) != pager.PageSize {
		return NodeView{}, pager.ErrBadPageData
	}
	if dual := buf[1]&flagDualTime != 0; dual != cfg.DualTime {
		return NodeView{}, fmt.Errorf("rtree: page %d temporal layout (dual=%v) does not match tree config (dual=%v)", id, dual, cfg.DualTime)
	}
	v := NodeView{page: buf, id: id, entryLayout: cfg.layout(buf[0] == 0)}
	if v.Len() > cfg.fanout(v.Leaf()) {
		kind := "internal"
		if v.Leaf() {
			kind = "leaf"
		}
		return NodeView{}, fmt.Errorf("rtree: page %d %s count %d exceeds fanout", id, kind, v.Len())
	}
	return v, nil
}

// Level returns the node's level (0 = leaf).
func (v NodeView) Level() int { return int(v.page[0]) }

// Leaf reports whether the node is at the leaf level.
func (v NodeView) Leaf() bool { return v.page[0] == 0 }

// Len returns the number of entries (children or segments).
func (v NodeView) Len() int { return int(binary.LittleEndian.Uint16(v.page[2:])) }

// Stamp returns the modification sequence number at the node's last write.
func (v NodeView) Stamp() uint64 { return binary.LittleEndian.Uint64(v.page[4:]) }

// entry returns entry k's bytes, capacity-clipped so that f32At's bound is
// the entry's end.
func (v NodeView) entry(k int) []byte {
	off := nodeHeaderSize + k*int(v.stride)
	end := off + int(v.stride)
	return v.page[off:end:end]
}

// f32At reads the float32 at b[off:]. The full slice expression costs one
// bounds check and leaves nothing to mask, where b[off:] costs two and a
// pointer mask per read.
func f32At(b []byte, off int) float64 {
	return float64(math.Float32frombits(binary.LittleEndian.Uint32(b[off : off+4 : off+4])))
}

func intervalAt(b []byte, off int) geom.Interval {
	return geom.Interval{Lo: f32At(b, off), Hi: f32At(b, off+4)}
}

// ChildID returns the page of internal entry k's subtree.
func (v NodeView) ChildID(k int) pager.PageID {
	e := v.entry(k)
	return pager.PageID(binary.LittleEndian.Uint32(e[len(e)-4:]))
}

// timeAxes returns internal entry e's start-time and end-time extents. The
// single-axis layout stores only their hull, which stands in for both.
func (v NodeView) timeAxes(e []byte) (ts, te geom.Interval) {
	ts = intervalAt(e, 8*int(v.dims))
	if !v.dual {
		return ts, ts
	}
	return ts, intervalAt(e, 8*int(v.dims)+8)
}

// ChildOverlaps reports whether internal entry k's box shares a point with
// q, a box in the dual key space (see QueryBox).
func (v NodeView) ChildOverlaps(k int, q geom.Box) bool {
	e := v.entry(k)
	d := int(v.dims)
	for i := 0; i < d; i++ {
		if !intervalAt(e, 8*i).Overlaps(q[i]) {
			return false
		}
	}
	ts, te := v.timeAxes(e)
	return ts.Overlaps(q[d]) && te.Overlaps(q[d+1])
}

// ChildStartTimes returns internal entry k's start-time extent: the range
// of validity start times beneath it.
func (v NodeView) ChildStartTimes(k int) geom.Interval {
	return intervalAt(v.entry(k), 8*int(v.dims))
}

// ChildBox fills dst (Dims+2 extents, caller-owned) with internal entry
// k's box in the dual key space.
func (v NodeView) ChildBox(k int, dst geom.Box) {
	e := v.entry(k)
	d := int(v.dims)
	for i := 0; i < d; i++ {
		dst[i] = intervalAt(e, 8*i)
	}
	dst[d], dst[d+1] = v.timeAxes(e)
}

// EntryKey returns what identifies leaf entry k: its object and validity
// start time.
func (v NodeView) EntryKey(k int) (ObjectID, float64) {
	e := v.entry(k)
	return ObjectID(binary.LittleEndian.Uint64(e)), f32At(e, 8+8*int(v.dims))
}

// Entry fills the caller-owned dst with leaf entry k, reusing the capacity
// of dst's points. dst stays valid after the view dies, until the next
// Entry call on it; Keep is the copy for an entry that outlives the visit.
func (v NodeView) Entry(k int, dst *LeafEntry) {
	dst.ID = v.entrySeg(k, &dst.Seg)
}

// entrySeg fills seg with leaf entry k's segment, reusing the capacity of
// its points, and returns the entry's object.
func (v NodeView) entrySeg(k int, seg *geom.Segment) ObjectID {
	e := v.entry(k)
	d := int(v.dims)
	seg.Start = seg.Start[:0]
	seg.End = seg.End[:0]
	for i := 0; i < d; i++ {
		seg.Start = append(seg.Start, f32At(e, 8+4*i))
		seg.End = append(seg.End, f32At(e, 8+4*(d+i)))
	}
	seg.T = intervalAt(e, 8+8*d)
	return ObjectID(binary.LittleEndian.Uint64(e))
}

// EntryOverlaps reports whether leaf entry k's box (LeafEntry.Box) shares
// a point with q.Box, without decoding the entry. It is NextBoxOverlap's
// one-entry scan.
func (v NodeView) EntryOverlaps(k int, q *Query) bool {
	return v.NextBoxOverlap(k, k+1, q) == k
}

// NextBoxOverlap scans leaf entries from, from+1, … before to and returns the
// first one whose box (LeafEntry.Box) shares a point with q.Box, or to. It
// is the one definition of the leaf box test.
//
// For an ordered query (Query.Fill classifies it once) an axis misses
// exactly when both of its stored values, read where they lie, are beyond
// the same border. That is Interval.Overlaps on the entry's sorted extent
// without the sort and without min/max, and a NaN stored value, which
// compares false, never misses, as there. The spatial axes go first: a
// fly-through frame's candidates are mostly valid during it and miss it in
// space. Any other query takes boxOverlaps per entry.
func (v NodeView) NextBoxOverlap(from, to int, q *Query) int {
	d := int(v.dims)
	box := q.Box[:d+2]
	if !q.ordered {
		for k := from; k < to; k++ {
			if v.boxOverlaps(k, box) {
				return k
			}
		}
		return to
	}
	spatial, ts, te := box[:d], box[d], box[d+1]
entries:
	for k := from; k < to; k++ {
		e := v.entry(k)
		for i, b := range spatial {
			x0, x1 := f32At(e, 8+4*i), f32At(e, 8+4*(d+i))
			if x0 < b.Lo && x1 < b.Lo || x0 > b.Hi && x1 > b.Hi {
				continue entries
			}
		}
		if t0 := f32At(e, 8+8*d); t0 < ts.Lo || t0 > ts.Hi {
			continue
		}
		if t1 := f32At(e, 12+8*d); t1 < te.Lo || t1 > te.Hi {
			continue
		}
		return k
	}
	return to
}

// boxOverlaps is the box test as Box.Overlaps states it on the decoded
// entry's box, for a query with a NaN bound or an inverted extent: an
// inverted extent meets only an entry holding a NaN on its axis, and a NaN
// bound meets every entry on its axis.
func (v NodeView) boxOverlaps(k int, q geom.Box) bool {
	e := v.entry(k)
	d := int(v.dims)
	for i := 0; i < d; i++ {
		lo, hi := f32At(e, 8+4*i), f32At(e, 8+4*(d+i))
		if lo > hi {
			lo, hi = hi, lo
		}
		if !(geom.Interval{Lo: lo, Hi: hi}).Overlaps(q[i]) {
			return false
		}
	}
	t := intervalAt(e, 8+8*d)
	return geom.IntervalOf(t.Lo).Overlaps(q[d]) && geom.IntervalOf(t.Hi).Overlaps(q[d+1])
}

// EntryTime returns leaf entry k's validity interval.
func (v NodeView) EntryTime(k int) geom.Interval {
	return intervalAt(v.entry(k), 8+8*int(v.dims))
}

// EntryOverlapTime is the exact leaf test on the page: it returns what
// geom.Segment.OverlapTimeInBox returns for the decoded entry — the time
// during which leaf entry k's trajectory lies inside q.Exact (spatial
// extents, then the time window) — without decoding it. A non-empty result
// is that one's bit for bit; an empty one may differ in its bits (see
// NextOverlap, whose one-entry scan it is).
func (v NodeView) EntryOverlapTime(k int, q *Query) geom.Interval {
	_, w := v.NextOverlap(k, k+1, q)
	return w
}

// NextOverlap scans leaf entries from, from+1, … before to and returns the
// first one whose EntryOverlapTime is not empty, with that overlap, or to
// and an empty interval.
//
// It is the one definition of the exact leaf test. The entry's values go
// through the same geom.ClipLine in the same axis order as in
// OverlapTimeInBox, except where an empty result is proven first, which
// changes only the bits of an empty result: for an ordered query by the
// gate (nextCandidate), and on any axis by geom.ClipMisses, which ends the
// test without dividing. A query with a NaN bound or an inverted extent
// (the API refuses the first and never builds the second) skips the gate.
// The loop runs, and an entry matches, while the running overlap has
// Lo ≤ Hi, as in OverlapTimeInBox: a NaN there (a corrupt page's validity,
// a NaN window) makes the entry a miss whichever way it is reached.
func (v NodeView) NextOverlap(from, to int, q *Query) (int, geom.Interval) {
	d := int(v.dims)
	exact := q.Exact[:d+1]
	win, spatial := exact[d], exact[:d]
	for k := from; k < to; k++ {
		if q.ordered {
			if k = v.nextCandidate(k, to, q); k == to {
				break
			}
		}
		e := v.entry(k)
		t := intervalAt(e, 8+8*d)
		w := t.Intersect(win)
		for i := 0; i < d && w.Lo <= w.Hi; i++ {
			x0, x1, b := f32At(e, 8+4*i), f32At(e, 8+4*(d+i)), spatial[i]
			if geom.ClipMisses(t.Lo, x0, t.Hi, x1, b.Lo, b.Hi) {
				w = geom.EmptyInterval()
				break
			}
			w = geom.ClipLine(t.Lo, x0, t.Hi, x1, b.Lo, b.Hi, w)
		}
		if w.Lo <= w.Hi {
			return k, w
		}
	}
	return to, geom.EmptyInterval()
}

// nextCandidate is NextOverlap's gate for an ordered query: it scans leaf
// entries from, from+1, … before to and returns the first one it cannot
// reject by comparisons, or to. It rejects what most of a scan meets:
//   - an entry valid outside the window, or with inverted validity:
//     t0 > window.Hi, t1 < window.Lo or t0 > t1, exactly where
//     Interval.Intersect is empty;
//   - an entry with an axis whose end points both lie beyond one border
//     (geom.BeyondGap) far enough for geom.ClipMargin, exactly where
//     geom.ClipMisses fires.
//
// The validity test goes first: it is the cheaper one, and it rejects about
// two in five of the entries a fly-through frame tests.
func (v NodeView) nextCandidate(from, to int, q *Query) int {
	d := int(v.dims)
	exact := q.Exact[:d+1]
	win, spatial := exact[d], exact[:d]
entries:
	for k := from; k < to; k++ {
		e := v.entry(k)
		t0, t1 := f32At(e, 8+8*d), f32At(e, 12+8*d)
		if t0 > win.Hi || t1 < win.Lo || t0 > t1 {
			continue
		}
		for i, b := range spatial {
			gap, w := geom.BeyondGap(f32At(e, 8+4*i), f32At(e, 8+4*(d+i)), b.Lo, b.Hi)
			if gap > 0 && geom.ClipMargin(t0, t1, gap, w) {
				continue entries
			}
		}
		return k
	}
	return to
}

// EntryLines fills x (Dims forms, caller-owned) with leaf entry k's
// coordinates as linear forms of time and returns its validity t: x[i] is
// geom.LinearBetween(t.Lo, start_i, t.Hi, end_i), what geom.Segment.Coord
// returns for the decoded entry, from the same values read where they lie.
// It is the operand of trajectory.OverlapMotion, PDQ's leaf test on the
// page.
func (v NodeView) EntryLines(k int, x []geom.Linear) geom.Interval {
	e := v.entry(k)
	d := int(v.dims)
	t := intervalAt(e, 8+8*d)
	for i := 0; i < d; i++ {
		x[i] = geom.LinearBetween(t.Lo, f32At(e, 8+4*i), t.Hi, f32At(e, 8+4*(d+i)))
	}
	return t
}

// NextSwept is PDQ's leaf scan: it scans leaf entries from, from+1, …
// before to and returns the first one whose episodes with the trajectory
// that swept g may still be due, or to; rejected counts the entries g's
// gate skipped on the way. It skips, reading each entry's float32
// validity and end points where they lie:
//   - an entry whose validity ∩ g.Span is empty or over before tStart,
//     exactly as Interval.Intersect and Empty decide it: every episode
//     lies inside it (OverlapMotion's first step);
//   - an entry g's gate (geom.SweptBox.Rejects) rejects: OverlapMotion
//     finds it empty.
func (v NodeView) NextSwept(from, to int, tStart float64, g *geom.SweptBox) (k, rejected int) {
	d := int(v.dims)
	span := g.Span()
	var x0, x1 [maxDims]float64
	for k = from; k < to; k++ {
		e := v.entry(k)
		t0, t1 := f32At(e, 8+8*d), f32At(e, 12+8*d)
		if lo, hi := max(t0, span.Lo), min(t1, span.Hi); lo > hi || tStart > hi {
			continue
		}
		for i := 0; i < d; i++ {
			x0[i], x1[i] = f32At(e, 8+4*i), f32At(e, 8+4*(d+i))
		}
		if !g.Rejects(t0, t1, x0[:d], x1[:d]) {
			return k, rejected
		}
		rejected++
	}
	return to, rejected
}

// Slab is the coordinate storage of the leaf entries one traversal or one
// predictive session copies out of its pages (Keep): a chunk per growth
// step instead of an allocation per entry. The zero value is ready. A
// chunk lives as long as any point cut from it, and is never handed out
// twice, so whoever receives a kept entry owns its points.
type Slab struct {
	free []float64 // unused tail of the newest chunk
	size int       // entries the newest chunk was made for
}

// slabChunkMax caps a chunk's entries, so that a long session's slab does
// not grow chunks without bound, each pinned whole by any one result.
const slabChunkMax = 1024

// Keep copies leaf entry k out of the page for good, its points cut from
// s and capacity-clipped, so appending to one never reaches a neighbour.
// The result is named so that KeepSeg fills it in place: a local entry
// copied out on return would be reloaded in 16-byte loads, which stall.
func (v NodeView) Keep(k int, s *Slab) (e LeafEntry) {
	e.ID = v.KeepSeg(k, s, &e.Seg)
	return e
}

// KeepSeg is Keep into caller-owned storage: seg receives the segment and
// the object is returned, so a result can be built where it will stay. A
// result built aside and appended would be written in words and copied in
// 16-byte loads, which stall (TestViewAccessorsDoNotStall).
func (v NodeView) KeepSeg(k int, s *Slab, seg *geom.Segment) ObjectID {
	d := int(v.dims)
	if len(s.free) < 2*d {
		s.size = min(max(8, 2*s.size), slabChunkMax)
		s.free = make([]float64, 2*d*s.size)
	}
	seg.Start, seg.End, s.free = s.free[:0:d], s.free[d:d:2*d], s.free[2*d:]
	return v.entrySeg(k, seg)
}

// View runs fn on a view of node id under the tree's read lock, charging
// one disk access to c (split by leaf/internal level, the paper's I/O
// metric). The view is valid only until
// fn returns, and fn must not call back into the tree: a writer queued
// behind the read lock would deadlock a nested acquisition.
func (t *Tree) View(id pager.PageID, c *stats.Counters, fn func(NodeView) error) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.view(id, c, fn)
}

// Reader is the tree as one read transaction sees it: Tree.Read holds the
// tree's read lock for the life of the value, so its methods do not lock.
type Reader struct{ t *Tree }

// Read runs fn under the tree's read lock. Everything fn reads through r —
// the root, the modification sequence, any number of node views — is one
// state of the tree: no insertion or deletion (which may free or re-use
// the pages fn is walking) runs in between. fn must not call the tree's own
// methods, as for View.
func (t *Tree) Read(fn func(r Reader) error) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return fn(Reader{t})
}

// Root is Tree.Root.
func (r Reader) Root() (id pager.PageID, level int, ok bool) {
	if r.t.root == pager.InvalidPage {
		return pager.InvalidPage, 0, false
	}
	return r.t.root, r.t.height - 1, true
}

// ModSeq is Tree.ModSeq.
func (r Reader) ModSeq() uint64 { return r.t.modSeq }

// Size is Tree.Size.
func (r Reader) Size() int { return r.t.size }

// View is Tree.View under the lock Read already holds.
func (r Reader) View(id pager.PageID, c *stats.Counters, fn func(NodeView) error) error {
	return r.t.view(id, c, fn)
}

// view is View for callers already holding the tree lock. The page is
// borrowed from the pool for the duration of fn, never copied.
func (t *Tree) view(id pager.PageID, c *stats.Counters, fn func(NodeView) error) error {
	lease, err := t.pool.Lend(id)
	if err != nil {
		return fmt.Errorf("rtree: load page %d: %w", id, err)
	}
	defer lease.Release()
	v, err := openView(t.cfg, id, lease.Page)
	if err != nil {
		return err
	}
	// The paper's I/O metric counts every node fetch; the buffer-hit
	// counter additionally records which of those the pool absorbed. The
	// pool reports the hit per call, since global counter deltas are
	// meaningless with concurrent readers.
	if lease.Hit {
		c.AddBufferHit()
	}
	c.AddRead(v.Leaf())
	return fn(v)
}
