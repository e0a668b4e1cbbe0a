package trajectory

import "dynq/internal/geom"

// refOverlapSegment is OverlapSegment as it ran before the borders were
// computed once per trajectory: for every tested segment and every query
// segment both borders of every dimension are rebuilt by LinearBetween, and
// the object's coordinate forms by Segment.Coord. OverlapSegment, and
// OverlapMotion on forms read off a page, are held to it bit for bit
// (FuzzOverlapMotion).
func refOverlapSegment(tr *Trajectory, s geom.Segment, set *geom.IntervalSet) {
	span := tr.TimeSpan().Intersect(s.T)
	if span.Empty() {
		return
	}
	if len(tr.keys) == 1 {
		t := tr.keys[0].T
		if tr.keys[0].Window.ContainsPoint(s.At(t)) {
			set.Add(geom.IntervalOf(t))
		}
		return
	}
	lo, hi := tr.segmentRange(span)
	for j := lo; j < hi; j++ {
		a, c := tr.keys[j], tr.keys[j+1]
		w := geom.Interval{Lo: a.T, Hi: c.T}.Intersect(span)
		for i := 0; i < tr.dims && !w.Empty(); i++ {
			lower := geom.LinearBetween(a.T, a.Window[i].Lo, c.T, c.Window[i].Lo)
			upper := geom.LinearBetween(a.T, a.Window[i].Hi, c.T, c.Window[i].Hi)
			x := s.Coord(i)
			w = x.Sub(lower).SolveGE(0, w)
			w = upper.Sub(x).SolveGE(0, w)
		}
		set.Add(w)
	}
}

// refOverlapBox is OverlapBox as it ran before the borders were computed
// once per trajectory, rebuilding them for every box tested.
func refOverlapBox(tr *Trajectory, b geom.Box, set *geom.IntervalSet) {
	hull := geom.Interval{Lo: b[tr.dims].Lo, Hi: b[tr.dims+1].Hi}
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
		a, c := tr.keys[j], tr.keys[j+1]
		w := geom.Interval{Lo: a.T, Hi: c.T}.Intersect(span)
		for i := 0; i < tr.dims && !w.Empty(); i++ {
			lower := geom.LinearBetween(a.T, a.Window[i].Lo, c.T, c.Window[i].Lo)
			upper := geom.LinearBetween(a.T, a.Window[i].Hi, c.T, c.Window[i].Hi)
			w = lower.SolveLE(b[i].Hi, w)
			w = upper.SolveGE(b[i].Lo, w)
		}
		set.Add(w)
	}
}
