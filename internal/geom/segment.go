package geom

// Segment is one motion segment of an object in native (d-dimensional)
// space: the object translates linearly from Start at time T.Lo to End at
// time T.Hi (Equation 1 of the paper, between two motion updates).
//
// The NSI leaf level stores segments by their end points, not their
// bounding boxes, so queries can test the exact trajectory (the leaf-level
// optimization of Section 3.2).
type Segment struct {
	T     Interval // valid time [t_l, t_h]
	Start Point    // location at T.Lo
	End   Point    // location at T.Hi
}

// Dims returns the spatial dimensionality of the segment.
func (s Segment) Dims() int { return len(s.Start) }

// Clone returns a deep copy of the segment; both points share one backing
// array, capacity-clipped so appending to one never reaches the other.
func (s Segment) Clone() Segment {
	d := len(s.Start)
	pts := make(Point, d+len(s.End))
	copy(pts, s.Start)
	copy(pts[d:], s.End)
	return Segment{T: s.T, Start: pts[:d:d], End: pts[d:]}
}

// At returns the object's location at time t, which must lie inside s.T
// (clamped otherwise). This is the location function f of Equation 1.
func (s Segment) At(t float64) Point {
	f, moving := s.progress(t)
	if !moving {
		return s.Start.Clone()
	}
	return s.Start.Lerp(s.End, f)
}

// progress returns the share of the way from Start to End covered at time
// t, clamped to [0, 1]; moving is false for an instantaneous segment, which
// stays at Start.
func (s Segment) progress(t float64) (f float64, moving bool) {
	if s.T.Length() == 0 {
		return 0, false
	}
	f = (t - s.T.Lo) / (s.T.Hi - s.T.Lo)
	if f < 0 {
		f = 0
	} else if f > 1 {
		f = 1
	}
	return f, true
}

// Coord returns the i-th coordinate of the trajectory as a linear form of
// time.
func (s Segment) Coord(i int) Linear {
	return LinearBetween(s.T.Lo, s.Start[i], s.T.Hi, s.End[i])
}

// IntersectsBox reports whether the exact trajectory passes through the
// spatio-temporal query box q (spatial extents first, time extent last),
// i.e. whether there is a time t ∈ q[d] ∩ s.T at which the object's
// position lies inside the spatial extents of q. This is the exact
// leaf-level test of Section 3.2 that avoids the false admissions of the
// bounding-box test.
func (s Segment) IntersectsBox(q Box) bool {
	return !s.OverlapTimeInBox(q).Empty()
}

// OverlapTimeInBox returns the time interval during which the trajectory
// lies inside the spatial extents of q, clipped to q's time extent. The
// result is empty if the trajectory never enters q during q's validity,
// and also where a NaN (a corrupt page's validity, a window the API
// refuses) reaches the running interval: the loop runs while Lo ≤ Hi.
func (s Segment) OverlapTimeInBox(q Box) Interval {
	d := s.Dims()
	w := s.T.Intersect(q[d])
	for i := 0; i < d && w.Lo <= w.Hi; i++ {
		w = ClipLine(s.T.Lo, s.Start[i], s.T.Hi, s.End[i], q[i].Lo, q[i].Hi, w)
	}
	if !(w.Lo <= w.Hi) {
		return EmptyInterval()
	}
	return w
}

// DistSqAt returns the squared Euclidean distance between the object's
// position at time t and the point p.
func (s Segment) DistSqAt(t float64, p Point) float64 {
	f, moving := s.progress(t)
	sum := 0.0
	for i, x := range s.Start {
		if moving {
			x = float64(x + f*(s.End[i]-x)) // At's position, rounded as Lerp stores it
		}
		dd := x - p[i]
		sum += dd * dd
	}
	return sum
}
