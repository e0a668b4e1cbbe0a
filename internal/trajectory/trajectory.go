// Package trajectory models the moving query window of a predictive
// dynamic query (Section 4.1). A trajectory is a sequence of key snapshot
// queries K¹…Kⁿ (Equation 2): spatial windows pinned at strictly
// increasing times. Between consecutive keys the window's borders
// interpolate linearly, sweeping the trapezoid regions of Figure 3.
//
// The central operation is computing the time interval(s) during which a
// space-time bounding box — or an exact motion segment — overlaps the
// moving window (Equation 3). The paper's "four cases" of border/box
// intersection reduce to solving linear inequalities in t, which
// geom.Linear provides; the per-dimension intervals are intersected, and
// the per-query-segment intervals unioned into disjoint visibility
// episodes.
package trajectory

import (
	"fmt"
	"sort"

	"dynq/internal/geom"
)

// Key is one key snapshot query: the observer's spatial window at time T.
type Key struct {
	T      float64
	Window geom.Box // one interval per spatial dimension
}

// Trajectory is an immutable sequence of key snapshots with strictly
// increasing times and equal-dimensionality non-empty windows.
type Trajectory struct {
	keys []Key
	dims int
	// borders holds, for query segment j and dimension i at j*dims+i, the
	// window's lower and upper border between keys j and j+1 as linear
	// forms of time: computed once here instead of per tested entry.
	borders []border
}

// border is one dimension of one trapezoid of Figure 3: the window's two
// moving edges.
type border struct{ lower, upper geom.Linear }

// New validates and builds a trajectory. At least one key is required; a
// single key describes a stationary instantaneous query.
func New(keys []Key) (*Trajectory, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("trajectory: need at least one key snapshot")
	}
	dims := len(keys[0].Window)
	if dims == 0 {
		return nil, fmt.Errorf("trajectory: key windows must have at least one dimension")
	}
	for i, k := range keys {
		if len(k.Window) != dims {
			return nil, fmt.Errorf("trajectory: key %d has %d dims, want %d", i, len(k.Window), dims)
		}
		if k.Window.Empty() {
			return nil, fmt.Errorf("trajectory: key %d window is empty", i)
		}
		if i > 0 && keys[i-1].T >= k.T {
			return nil, fmt.Errorf("trajectory: key times must be strictly increasing (%g after %g)", k.T, keys[i-1].T)
		}
	}
	cp := make([]Key, len(keys))
	for i, k := range keys {
		cp[i] = Key{T: k.T, Window: k.Window.Clone()}
	}
	borders := make([]border, (len(keys)-1)*dims)
	for j := 0; j+1 < len(keys); j++ {
		a, c := cp[j], cp[j+1]
		for i := 0; i < dims; i++ {
			borders[j*dims+i] = border{
				lower: geom.LinearBetween(a.T, a.Window[i].Lo, c.T, c.Window[i].Lo),
				upper: geom.LinearBetween(a.T, a.Window[i].Hi, c.T, c.Window[i].Hi),
			}
		}
	}
	return &Trajectory{keys: cp, dims: dims, borders: borders}, nil
}

// Dims returns the spatial dimensionality of the query windows.
func (tr *Trajectory) Dims() int { return tr.dims }

// Instant reports whether the trajectory is a single key snapshot: a
// stationary instantaneous query, which OverlapMotion does not take.
func (tr *Trajectory) Instant() bool { return len(tr.keys) == 1 }

// Keys returns a copy of the key snapshots.
func (tr *Trajectory) Keys() []Key {
	cp := make([]Key, len(tr.keys))
	for i, k := range tr.keys {
		cp[i] = Key{T: k.T, Window: k.Window.Clone()}
	}
	return cp
}

// TimeSpan returns [first key time, last key time].
func (tr *Trajectory) TimeSpan() geom.Interval {
	return geom.Interval{Lo: tr.keys[0].T, Hi: tr.keys[len(tr.keys)-1].T}
}

// WindowAt returns the interpolated query window at time t (clamped to
// the trajectory's time span). Snapshot queries posed by a renderer
// between key frames see exactly this window.
func (tr *Trajectory) WindowAt(t float64) geom.Box {
	n := len(tr.keys)
	if t <= tr.keys[0].T {
		return tr.keys[0].Window.Clone()
	}
	if t >= tr.keys[n-1].T {
		return tr.keys[n-1].Window.Clone()
	}
	j := sort.Search(n, func(i int) bool { return tr.keys[i].T > t }) - 1
	a, b := tr.keys[j], tr.keys[j+1]
	f := (t - a.T) / (b.T - a.T)
	w := make(geom.Box, tr.dims)
	for i := 0; i < tr.dims; i++ {
		w[i] = geom.Interval{
			Lo: a.Window[i].Lo + f*(b.Window[i].Lo-a.Window[i].Lo),
			Hi: a.Window[i].Hi + f*(b.Window[i].Hi-a.Window[i].Hi),
		}
	}
	return w
}

// Inflate returns the SPDQ variant of the trajectory (Section 4): each
// key window grown by delta(K.t), admitting observers that deviate from
// the predicted path by up to that much.
func (tr *Trajectory) Inflate(delta func(t float64) float64) (*Trajectory, error) {
	keys := make([]Key, len(tr.keys))
	for i, k := range tr.keys {
		d := delta(k.T)
		if d < 0 {
			return nil, fmt.Errorf("trajectory: negative inflation %g at t=%g", d, k.T)
		}
		keys[i] = Key{T: k.T, Window: k.Window.Expand(d)}
	}
	return New(keys)
}

// segmentRange returns the indices [lo, hi) of query segments S^j =
// (K^j, K^{j+1}) whose time spans overlap w. A single-key trajectory has
// one degenerate segment.
func (tr *Trajectory) segmentRange(w geom.Interval) (int, int) {
	n := len(tr.keys)
	if n == 1 {
		if w.ContainsValue(tr.keys[0].T) {
			return 0, 1
		}
		return 0, 0
	}
	// First segment with end time ≥ w.Lo.
	lo := sort.Search(n-1, func(j int) bool { return tr.keys[j+1].T >= w.Lo })
	// First segment with start time > w.Hi.
	hi := sort.Search(n-1, func(j int) bool { return tr.keys[j].T > w.Hi })
	return lo, hi
}

// OverlapBox appends to set the disjoint time intervals during which the
// moving query window overlaps the space-time box b, given in the index's
// dual key space: d spatial extents, then the start-time and end-time
// extents. This is Equation 3 evaluated for every relevant query segment.
func (tr *Trajectory) OverlapBox(b geom.Box, set *geom.IntervalSet) {
	if len(b) != tr.dims+2 {
		panic(fmt.Sprintf("trajectory: box has %d dims, want %d", len(b), tr.dims+2))
	}
	hull := geom.Interval{Lo: b[tr.dims].Lo, Hi: b[tr.dims+1].Hi} // validity hull
	span := tr.TimeSpan().Intersect(hull)
	if span.Empty() {
		return
	}
	if len(tr.keys) == 1 {
		if tr.keys[0].Window.Overlaps(geom.Box(b[:tr.dims])) {
			set.Add(geom.IntervalOf(tr.keys[0].T))
		}
		return
	}
	lo, hi := tr.segmentRange(span)
	for j := lo; j < hi; j++ {
		iv := tr.overlapBoxSegment(j, b, span)
		set.Add(iv)
	}
}

// overlapBoxSegment computes T^j for one query segment: the sub-interval
// of the segment's time span during which box b overlaps the interpolated
// window.
func (tr *Trajectory) overlapBoxSegment(j int, b geom.Box, span geom.Interval) geom.Interval {
	w := geom.Interval{Lo: tr.keys[j].T, Hi: tr.keys[j+1].T}.Intersect(span)
	borders := tr.borders[j*tr.dims : (j+1)*tr.dims]
	for i := 0; i < tr.dims && !w.Empty(); i++ {
		// Overlap along dimension i: lower border ≤ box high AND upper
		// border ≥ box low (the four cases of Figure 3(b)).
		w = borders[i].lower.SolveLE(b[i].Hi, w)
		w = borders[i].upper.SolveGE(b[i].Lo, w)
	}
	return w
}

// OverlapSegment appends to set the disjoint time intervals during which
// the moving query window contains the (moving) object described by the
// exact motion segment s. This is the leaf-level test: both the query
// borders and the object's coordinates are linear in t, so containment per
// dimension is again a pair of linear inequalities.
func (tr *Trajectory) OverlapSegment(s geom.Segment, set *geom.IntervalSet) {
	if s.Dims() != tr.dims {
		panic(fmt.Sprintf("trajectory: segment has %d dims, want %d", s.Dims(), tr.dims))
	}
	if len(tr.keys) == 1 {
		t := tr.keys[0].T
		if s.T.ContainsValue(t) && tr.keys[0].Window.ContainsPoint(s.At(t)) {
			set.Add(geom.IntervalOf(t))
		}
		return
	}
	var buf [4]geom.Linear // the forms of up to four dimensions stay on the stack
	x := buf[:0]
	for i := 0; i < tr.dims; i++ {
		x = append(x, s.Coord(i))
	}
	tr.OverlapMotion(s.T, x, set)
}

// OverlapMotion is OverlapSegment for an object given by its validity and
// its coordinates as linear forms of time, x[i] = geom.LinearBetween(
// validity.Lo, start_i, validity.Hi, end_i) — what Segment.Coord returns.
// It is the one definition of the leaf-level test's arithmetic: a decoded
// segment's forms come through OverlapSegment, and a predictive query feeds
// the same forms read off the page (rtree.NodeView.EntryLines), so both get
// the same floats. The trajectory must not be Instant: a single key tests
// the object's position by Segment.At, which the forms do not reproduce.
func (tr *Trajectory) OverlapMotion(validity geom.Interval, x []geom.Linear, set *geom.IntervalSet) {
	if len(x) != tr.dims || len(tr.keys) == 1 {
		panic(fmt.Sprintf("trajectory: OverlapMotion with %d forms on %d keys of %d dims", len(x), len(tr.keys), tr.dims))
	}
	span := tr.TimeSpan().Intersect(validity)
	if span.Empty() {
		return
	}
	lo, hi := tr.segmentRange(span)
	for j := lo; j < hi; j++ {
		set.Add(tr.overlapMotionSegment(j, x, span))
	}
}

func (tr *Trajectory) overlapMotionSegment(j int, x []geom.Linear, span geom.Interval) geom.Interval {
	w := geom.Interval{Lo: tr.keys[j].T, Hi: tr.keys[j+1].T}.Intersect(span)
	borders := tr.borders[j*tr.dims : (j+1)*tr.dims]
	for i := 0; i < tr.dims && !w.Empty(); i++ {
		// lower(t) ≤ x(t) ≤ upper(t).
		w = x[i].Sub(borders[i].lower).SolveGE(0, w)
		w = borders[i].upper.Sub(x[i]).SolveGE(0, w)
	}
	return w
}
