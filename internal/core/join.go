package core

import (
	"fmt"
	"math"
	"unsafe"

	"dynq/internal/geom"
	"dynq/internal/pager"
	"dynq/internal/rtree"
	"dynq/internal/stats"
)

// JoinPair is one distance-join answer: two objects within the join
// distance of each other at the query time.
type JoinPair struct {
	A, B rtree.ObjectID
	SegA geom.Segment
	SegB geom.Segment
	Dist float64
}

// DistanceJoin finds every pair (a ∈ treeA, b ∈ treeB) of objects whose
// positions at time t lie within delta of each other — the paper's second
// direction of future work (Section 6 (ii), after the incremental
// distance joins of [6]). The trees may be the same tree (a self-join;
// pairs are then reported once with A < B and self-pairs suppressed).
//
// The algorithm descends both trees simultaneously, pruning node pairs
// whose boxes are farther than delta apart at the spatial level or have
// no segment alive at t, charging reads and distance computations like
// the other engines. It reads one state of each tree.
func DistanceJoin(treeA, treeB *rtree.Tree, delta, t float64, c *stats.Counters) ([]JoinPair, error) {
	if treeA.Config().Dims != treeB.Config().Dims {
		return nil, fmt.Errorf("core: join over trees of different dimensionality")
	}
	if delta < 0 {
		return nil, fmt.Errorf("core: join distance must be non-negative, got %g", delta)
	}
	var out []JoinPair
	err := readBoth(treeA, treeB, func(ra, rb rtree.Reader) error {
		rootA, levelA, okA := ra.Root()
		rootB, levelB, okB := rb.Root()
		if !okA || !okB {
			return nil
		}
		d := treeA.Config().Dims
		j := &joiner{
			a:     joinSide{r: ra, seen: make(map[pager.PageID]bool)},
			self:  treeA == treeB,
			delta: delta, t: t, c: c,
			d:   d,
			box: make(geom.Box, d+2),
		}
		j.b = j.a // a self-join's sides share the tree, and so the pages seen
		if !j.self {
			j.b = joinSide{r: rb, seen: make(map[pager.PageID]bool)}
		}
		return j.visit(rootA, levelA, rootB, levelB, &out)
	})
	if err != nil {
		return nil, err
	}
	c.AddResults(len(out))
	return out, nil
}

// readBoth runs fn under both trees' read locks. Two distinct trees are
// locked in address order: a cross join may run in both directions at
// once, and two readers that take two locks in opposite orders deadlock as
// soon as writers queue on both.
func readBoth(a, b *rtree.Tree, fn func(ra, rb rtree.Reader) error) error {
	if a == b {
		return a.Read(func(r rtree.Reader) error { return fn(r, r) })
	}
	if uintptr(unsafe.Pointer(b)) < uintptr(unsafe.Pointer(a)) {
		return readBoth(b, a, func(rb, ra rtree.Reader) error { return fn(ra, rb) })
	}
	return a.Read(func(ra rtree.Reader) error {
		return b.Read(func(rb rtree.Reader) error { return fn(ra, rb) })
	})
}

type joiner struct {
	a, b     joinSide
	self     bool
	delta, t float64
	c        *stats.Counters
	d        int
	box      geom.Box        // one child box at a time
	e        rtree.LeafEntry // one entry decoded at a time
	partners []located       // a leaf's alive entries, while it is paired
	slab     rtree.Slab      // the points of the reported pairs
}

// joinSide is one tree as the join reads it. seen is the pages read so far:
// a node paired with many partners is charged once per join (the
// disk-access accounting of a join, as in [6]).
type joinSide struct {
	r    rtree.Reader
	seen map[pager.PageID]bool
}

// view runs fn on node id of side s, charging its read on the first visit.
func (j *joiner) view(s *joinSide, id pager.PageID, fn func(rtree.NodeView) error) error {
	c := j.c
	if s.seen[id] {
		c = nil
	} else {
		s.seen[id] = true
	}
	return s.r.View(id, c, fn)
}

// mbr returns the box of node id of side s.
func (j *joiner) mbr(s *joinSide, id pager.PageID) (geom.Box, error) {
	box := make(geom.Box, j.d+2)
	return box, j.view(s, id, func(v rtree.NodeView) error { v.MBR(box); return nil })
}

// alive reports whether the dual-space box can contain a segment alive at
// time t.
func (j *joiner) alive(b geom.Box) bool {
	return b[j.d].Lo <= j.t && b[j.d+1].Hi >= j.t
}

// boxMinDist is the minimum spatial distance between two boxes.
func boxMinDist(a, b geom.Box, d int) float64 {
	s := 0.0
	for i := 0; i < d; i++ {
		switch {
		case a[i].Hi < b[i].Lo:
			dd := b[i].Lo - a[i].Hi
			s += dd * dd
		case b[i].Hi < a[i].Lo:
			dd := a[i].Lo - b[i].Hi
			s += dd * dd
		}
	}
	return math.Sqrt(s)
}

// prune charges one distance computation for child k of v and reports
// whether its subtree can be skipped against other, the partner node's box:
// no segment beneath is alive at t, or all lie farther than delta.
func (j *joiner) prune(v rtree.NodeView, k int, other geom.Box) bool {
	j.c.AddDistanceComps(1)
	v.ChildBox(k, j.box)
	return !j.alive(j.box) || boxMinDist(j.box, other, j.d) > j.delta
}

func (j *joiner) visit(idA pager.PageID, levelA int, idB pager.PageID, levelB int, out *[]JoinPair) error {
	// Descend the deeper side first so both reach the leaf level together.
	switch {
	case levelA > 0 && levelA >= levelB:
		return j.view(&j.a, idA, func(vA rtree.NodeView) error {
			bBox, err := j.mbr(&j.b, idB)
			if err != nil {
				return err
			}
			for k := 0; k < vA.Len(); k++ {
				if j.prune(vA, k, bBox) {
					continue
				}
				if err := j.visit(vA.ChildID(k), levelA-1, idB, levelB, out); err != nil {
					return err
				}
			}
			return nil
		})
	case levelB > 0:
		return j.view(&j.b, idB, func(vB rtree.NodeView) error {
			aBox, err := j.mbr(&j.a, idA)
			if err != nil {
				return err
			}
			for k := 0; k < vB.Len(); k++ {
				if j.prune(vB, k, aBox) {
					continue
				}
				if err := j.visit(idA, levelA, vB.ChildID(k), levelB-1, out); err != nil {
					return err
				}
			}
			return nil
		})
	}
	// Both leaves: pair the alive segments.
	if j.self && idA > idB {
		// Symmetric pair already (or to be) visited as (idB, idA).
		return nil
	}
	return j.view(&j.a, idA, func(vA rtree.NodeView) error {
		if j.self && idA == idB {
			j.pair(vA, vA, true, out)
			return nil
		}
		return j.view(&j.b, idB, func(vB rtree.NodeView) error {
			j.pair(vA, vB, false, out)
			return nil
		})
	})
}

// pair reports the pairs of alive segments of leaves vA and vB that lie
// within delta. A leaf paired with itself (same) tests each unordered pair
// once. vB's alive entries are located at t once per call.
func (j *joiner) pair(vA, vB rtree.NodeView, same bool, out *[]JoinPair) {
	j.partners = j.partners[:0]
	for k := 0; k < vB.Len(); k++ {
		if vB.EntryTime(k).ContainsValue(j.t) {
			vB.Entry(k, &j.e)
			j.partners = append(j.partners, located{k: k, id: j.e.ID, at: j.e.Seg.At(j.t)})
		}
	}
	bs := j.partners
	for i := 0; i < vA.Len(); i++ {
		if !vA.EntryTime(i).ContainsValue(j.t) {
			continue
		}
		examined := vB.Len() // one distance computation each, alive or not
		if same {
			examined -= i + 1
			for len(bs) > 0 && bs[0].k <= i {
				bs = bs[1:]
			}
		}
		j.c.AddDistanceComps(examined)
		vA.Entry(i, &j.e)
		pa := j.e.Seg.At(j.t)
		for _, p := range bs {
			if j.self && p.id == j.e.ID {
				continue
			}
			if dist := pa.Dist(p.at); dist <= j.delta {
				a, b := vA.Keep(i, &j.slab), vB.Keep(p.k, &j.slab)
				if j.self && a.ID > b.ID {
					// Normalize self-join pairs: the (leafB, leafA) visit is
					// suppressed, so this visit reports both orders.
					a, b = b, a
				}
				*out = append(*out, JoinPair{A: a.ID, B: b.ID, SegA: a.Seg, SegB: b.Seg, Dist: dist})
			}
		}
	}
}

// located is a leaf entry alive at the join's time, and where it is then.
type located struct {
	k  int
	id rtree.ObjectID
	at geom.Point
}
