package geom

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// contains reports whether v lies in some interval of the set.
func contains(s *IntervalSet, v float64) bool {
	for _, iv := range s.Intervals() {
		if iv.ContainsValue(v) {
			return true
		}
	}
	return false
}

func TestIntervalSetBasic(t *testing.T) {
	var s IntervalSet
	if !s.Empty() || !s.Hull().Empty() {
		t.Error("new set should be empty")
	}
	s.Add(Interval{5, 7})
	s.Add(Interval{1, 2})
	s.Add(Interval{9, 10})
	ivs := s.Intervals()
	if len(ivs) != 3 || ivs[0] != (Interval{1, 2}) || ivs[1] != (Interval{5, 7}) || ivs[2] != (Interval{9, 10}) {
		t.Fatalf("intervals = %v", ivs)
	}
	if s.Hull() != (Interval{1, 10}) {
		t.Errorf("hull = %v", s.Hull())
	}
	if !contains(&s, 6) || contains(&s, 3) || !contains(&s, 1) || !contains(&s, 10) {
		t.Error("membership wrong")
	}
}

func TestIntervalSetMerge(t *testing.T) {
	var s IntervalSet
	s.Add(Interval{1, 3})
	s.Add(Interval{5, 8})
	s.Add(Interval{2, 6}) // bridges both
	ivs := s.Intervals()
	if len(ivs) != 1 || ivs[0] != (Interval{1, 8}) {
		t.Fatalf("merged = %v", ivs)
	}
	// Touching endpoints merge too.
	s.Reset()
	s.Add(Interval{0, 1})
	s.Add(Interval{1, 2})
	if len(s.Intervals()) != 1 || s.Hull() != (Interval{0, 2}) {
		t.Errorf("touching merge = %v", s.Intervals())
	}
	// Empty interval is a no-op.
	s.Add(EmptyInterval())
	if len(s.Intervals()) != 1 {
		t.Error("adding empty interval changed the set")
	}
}

func TestIntervalSetAbsorb(t *testing.T) {
	var s IntervalSet
	s.Add(Interval{0, 10})
	s.Add(Interval{2, 3})
	if len(s.Intervals()) != 1 || s.Hull() != (Interval{0, 10}) {
		t.Errorf("absorbed = %v", s.Intervals())
	}
	// Superset replaces.
	s.Add(Interval{-5, 20})
	if len(s.Intervals()) != 1 || s.Hull() != (Interval{-5, 20}) {
		t.Errorf("superset = %v", s.Intervals())
	}
}

// Property: after any sequence of Adds, the stored intervals are sorted,
// disjoint (non-touching), and membership matches the naive union.
func TestIntervalSetInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var s IntervalSet
		var added []Interval
		for i := 0; i < 30; i++ {
			iv := randInterval(r)
			s.Add(iv)
			added = append(added, iv)
		}
		ivs := s.Intervals()
		if !sort.SliceIsSorted(ivs, func(a, b int) bool { return ivs[a].Lo < ivs[b].Lo }) {
			return false
		}
		for i := 1; i < len(ivs); i++ {
			if ivs[i-1].Hi >= ivs[i].Lo { // must be strictly separated
				return false
			}
		}
		for i := 0; i < 60; i++ {
			v := r.Float64()*24 - 12
			naive := false
			for _, iv := range added {
				if iv.ContainsValue(v) {
					naive = true
					break
				}
			}
			if naive != contains(&s, v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntervalSetReset(t *testing.T) {
	var s IntervalSet
	s.Add(Interval{0, 1})
	s.Reset()
	if !s.Empty() || len(s.Intervals()) != 0 {
		t.Error("reset should empty the set")
	}
}
