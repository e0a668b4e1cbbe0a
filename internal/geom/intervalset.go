package geom

import "sort"

// IntervalSet is a union of intervals maintained as a sorted list of
// disjoint, non-empty intervals. The PDQ engine uses it to represent the
// visibility episodes of an index entry along the query trajectory
// (the ⋃ T^j of Equation 3): an object may enter the observer's view,
// leave it, and enter again, producing disjoint episodes.
type IntervalSet struct {
	ivs []Interval
}

// Add inserts an interval into the set, merging it with any intervals it
// touches or overlaps. Empty intervals are ignored.
func (s *IntervalSet) Add(iv Interval) {
	if iv.Empty() {
		return
	}
	// Find insertion window: all stored intervals with Lo ≤ iv.Hi and
	// Hi ≥ iv.Lo merge with iv.
	i := sort.Search(len(s.ivs), func(k int) bool { return s.ivs[k].Hi >= iv.Lo })
	j := i
	merged := iv
	for j < len(s.ivs) && s.ivs[j].Lo <= iv.Hi {
		merged = merged.Cover(s.ivs[j])
		j++
	}
	if i == j {
		s.ivs = append(s.ivs, Interval{})
		copy(s.ivs[i+1:], s.ivs[i:])
		s.ivs[i] = merged
		return
	}
	s.ivs[i] = merged
	s.ivs = append(s.ivs[:i+1], s.ivs[j:]...)
}

// Intervals returns the disjoint intervals in increasing order. The
// returned slice aliases internal state; callers must not modify it.
func (s *IntervalSet) Intervals() []Interval { return s.ivs }

// Empty reports whether the set holds no values.
func (s *IntervalSet) Empty() bool { return len(s.ivs) == 0 }

// Hull returns the smallest single interval covering the whole set
// (empty for an empty set).
func (s *IntervalSet) Hull() Interval {
	if len(s.ivs) == 0 {
		return EmptyInterval()
	}
	return Interval{Lo: s.ivs[0].Lo, Hi: s.ivs[len(s.ivs)-1].Hi}
}

// Reset empties the set, retaining capacity.
func (s *IntervalSet) Reset() { s.ivs = s.ivs[:0] }
