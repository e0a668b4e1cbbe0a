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
