package rtree

import (
	"context"
	"fmt"

	"dynq/internal/geom"
	"dynq/internal/pager"
	"dynq/internal/stats"
)

// Match is one segment returned by a range search: the object, its exact
// segment, and the time interval during which the segment actually lies
// inside the query's spatial range (clipped to the query's time window).
// Seg's points are the receiver's own: copied off the page once, nothing
// else holds them.
type Match struct {
	ID      ObjectID
	Seg     geom.Segment
	Overlap geom.Interval
}

// SearchOptions tune a range search. It stays because the nested
// benchmark module compiles against it.
type SearchOptions struct {
	// Limit, when positive, stops the traversal as soon as that many
	// matches have been collected. Which matches survive depends on the
	// traversal order and is unspecified beyond being deterministic for an
	// unchanged tree.
	Limit int
}

// RangeSearch answers a snapshot query (Definition 3): all segments whose
// trajectory passes through the spatial box during the time window. One
// disk access is charged per node visited and one distance computation per
// child entry examined, the paper's cost accounting.
func (t *Tree) RangeSearch(spatial geom.Box, tw geom.Interval, opts SearchOptions, c *stats.Counters) ([]Match, error) {
	return t.RangeSearchCtx(context.Background(), spatial, tw, opts, c)
}

// RangeSearchCtx is RangeSearch with cooperative cancellation: the context
// is checked once per node visited, so a cancelled or expired query stops
// within one page fetch and returns the context's error.
func (t *Tree) RangeSearchCtx(ctx context.Context, spatial geom.Box, tw geom.Interval, opts SearchOptions, c *stats.Counters) ([]Match, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if len(spatial) != t.cfg.Dims {
		return nil, fmt.Errorf("rtree: query has %d dims, tree has %d", len(spatial), t.cfg.Dims)
	}
	if t.root == pager.InvalidPage {
		return nil, nil
	}
	s := search{ctx: ctx, t: t, opts: opts, c: c}
	s.q.Fill(spatial, tw)
	if err := s.node(t.root); err != nil {
		return nil, err
	}
	c.AddResults(len(s.out))
	return s.out, nil
}

// search is the state of one range search. Entries are tested where they
// lie; a match's coordinates are copied out once, into slab.
type search struct {
	ctx  context.Context
	t    *Tree
	opts SearchOptions
	c    *stats.Counters
	q    Query
	slab Slab
	out  []Match
}

// full reports whether the match set has reached the search limit.
func (s *search) full() bool {
	return s.opts.Limit > 0 && len(s.out) >= s.opts.Limit
}

// node visits one node in place. One distance computation is charged per
// entry examined, once per node: the counter is an atomic.
func (s *search) node(id pager.PageID) error {
	if err := s.ctx.Err(); err != nil {
		return err
	}
	return s.t.view(id, s.c, func(v NodeView) error {
		if v.Leaf() {
			s.leaf(v)
			return nil
		}
		var err error
		k := 0
		for ; k < v.Len() && err == nil && !s.full(); k++ {
			if v.ChildOverlaps(k, s.q.Box) {
				err = s.node(v.ChildID(k))
			}
		}
		s.c.AddDistanceComps(k)
		return err
	})
}

func (s *search) leaf(v NodeView) {
	k, n := 0, v.Len()
	for k < n && !s.full() {
		var ov geom.Interval
		if k, ov = v.NextOverlap(k, n, &s.q); k == n {
			break
		}
		if s.out == nil {
			s.out = make([]Match, 0, 8) // grow in step with the slab
		}
		// Filled where it stays (KeepSeg).
		s.out = append(s.out, Match{})
		m := &s.out[len(s.out)-1]
		m.ID, m.Overlap = v.KeepSeg(k, &s.slab, &m.Seg), ov
		k++
	}
	s.c.AddDistanceComps(k)
}

// TreeStats summarizes the physical shape of the tree, mirroring the
// figures the paper reports for its index (Section 5: fanout 145/127,
// height 3).
type TreeStats struct {
	Height        int
	Segments      int
	LeafNodes     int
	InternalNodes int
	AvgLeafFill   float64 // mean entries per leaf / max leaf entries
	AvgIntFill    float64
	MaxLeafFan    int
	MaxIntFan     int
}

// Stats walks the whole tree (not counted against any query counters).
func (t *Tree) Stats() (TreeStats, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	st := TreeStats{
		Height:     t.height,
		Segments:   t.size,
		MaxLeafFan: t.cfg.MaxLeafEntries(),
		MaxIntFan:  t.cfg.MaxInternalEntries(),
	}
	if t.root == pager.InvalidPage {
		return st, nil
	}
	var leafEntries, intEntries int
	var walk func(id pager.PageID) error
	walk = func(id pager.PageID) error {
		return t.view(id, nil, func(v NodeView) error {
			if v.Leaf() {
				st.LeafNodes++
				leafEntries += v.Len()
				return nil
			}
			st.InternalNodes++
			intEntries += v.Len()
			for k := 0; k < v.Len(); k++ {
				if err := walk(v.ChildID(k)); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if err := walk(t.root); err != nil {
		return TreeStats{}, err
	}
	if st.LeafNodes > 0 {
		st.AvgLeafFill = float64(leafEntries) / float64(st.LeafNodes*st.MaxLeafFan)
	}
	if st.InternalNodes > 0 {
		st.AvgIntFill = float64(intEntries) / float64(st.InternalNodes*st.MaxIntFan)
	}
	return st, nil
}

// Validate checks the structural invariants of the tree and returns the
// first violation found (nil when sound): every child box contains its
// subtree's geometry, all leaves are at level 0 with uniform depth, entry
// counts respect the fanout (the view refuses a page whose count does not),
// and the recorded size matches the number of stored segments. Intended for
// tests and the loader tool.
func (t *Tree) Validate() error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.root == pager.InvalidPage {
		if t.size != 0 || t.height != 0 {
			return fmt.Errorf("rtree: empty tree with size=%d height=%d", t.size, t.height)
		}
		return nil
	}
	segs := 0
	var walk func(id pager.PageID, wantLevel int, within geom.Box) error
	walk = func(id pager.PageID, wantLevel int, within geom.Box) error {
		return t.view(id, nil, func(v NodeView) error {
			if v.Level() != wantLevel {
				return fmt.Errorf("rtree: node %d at level %d, expected %d", id, v.Level(), wantLevel)
			}
			box := make(geom.Box, t.cfg.boxDims())
			if v.Leaf() {
				segs += v.Len()
				for k := 0; within != nil && k < v.Len(); k++ {
					if v.EntryBox(k, box); !within.Contains(box) {
						eid, _ := v.EntryKey(k)
						return fmt.Errorf("rtree: leaf %d entry %d escapes parent box %v", id, eid, within)
					}
				}
				return nil
			}
			if v.Len() == 0 {
				return fmt.Errorf("rtree: internal %d is empty", id)
			}
			for k := 0; k < v.Len(); k++ {
				v.ChildBox(k, box)
				if within != nil && !within.Contains(box) {
					return fmt.Errorf("rtree: node %d child %d box escapes parent box", id, v.ChildID(k))
				}
				if err := walk(v.ChildID(k), wantLevel-1, box); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if err := walk(t.root, t.height-1, nil); err != nil {
		return err
	}
	if segs != t.size {
		return fmt.Errorf("rtree: recorded size %d, found %d segments", t.size, segs)
	}
	return nil
}
