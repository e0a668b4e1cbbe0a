package main

import (
	"math/rand"

	"dynq"
	"dynq/internal/geom"
)

// model is the harness's own record of which segments the database must
// hold: every update the harness sends is applied here too, and answers
// are checked against linear scans of it. It never asks the database
// anything.
type model struct {
	segs []seg
	at   map[segKey]int
	// volatile marks objects a concurrent writer may be rewriting while a
	// query runs; answers are compared on the other objects only. Nil
	// when nothing runs concurrently.
	volatile func(id uint64) bool
}

// newModel takes ownership of base.
func newModel(base []seg) *model {
	m := &model{segs: base, at: make(map[segKey]int, len(base))}
	for i, s := range m.segs {
		m.at[s.key()] = i
	}
	return m
}

func (m *model) len() int { return len(m.segs) }

func (m *model) stable(id uint64) bool { return m.volatile == nil || !m.volatile(id) }

func (m *model) apply(ups []dynq.MotionUpdate) {
	for _, u := range ups {
		k := segKey{u.ID, u.Segment.T0}
		if u.Delete {
			i, ok := m.at[k]
			if !ok {
				continue
			}
			last := len(m.segs) - 1
			m.segs[i] = m.segs[last]
			m.at[m.segs[i].key()] = i
			m.segs = m.segs[:last]
			delete(m.at, k)
			continue
		}
		s := segOf(u.ID, u.Segment)
		if i, ok := m.at[k]; ok {
			m.segs[i] = s
			continue
		}
		m.at[k] = len(m.segs)
		m.segs = append(m.segs, s)
	}
}

// correct appends one dead-reckoning correction to ups — delete the old
// prediction of a randomly chosen live segment, insert it again with a
// corrected end point — and applies it to the model.
func (m *model) correct(r *rand.Rand, ups []dynq.MotionUpdate) []dynq.MotionUpdate {
	s := m.segs[r.Intn(len(m.segs))]
	fixed := s
	fixed.x1 = q32(s.x1 + r.NormFloat64()*0.5)
	fixed.y1 = q32(s.y1 + r.NormFloat64()*0.5)
	pair := []dynq.MotionUpdate{s.remove(), fixed.insert()}
	m.apply(pair)
	return append(ups, pair...)
}

// snapshot is the brute-force answer to one snapshot query: every stable
// segment whose exact trajectory passes through view during tw.
func (m *model) snapshot(view dynq.Rect, tw geom.Interval) map[segKey]struct{} {
	q := geom.Box{{Lo: view.Min[0], Hi: view.Max[0]}, {Lo: view.Min[1], Hi: view.Max[1]}, tw}
	out := map[segKey]struct{}{}
	for _, s := range m.segs {
		if !boxMatch(s, view, tw) || !m.stable(s.id) {
			continue
		}
		if s.geom().IntersectsBox(q) {
			out[s.key()] = struct{}{}
		}
	}
	return out
}

// boxMatch is the index's bounding-box filter (rtree.QueryBox against a
// leaf entry's dual-time box): spatial extents overlap, the segment
// starts before the window closes and ends after it opens.
func boxMatch(s seg, view dynq.Rect, tw geom.Interval) bool {
	if s.t0 > tw.Hi || s.t1 < tw.Lo {
		return false
	}
	return overlap1(s.x0, s.x1, view.Min[0], view.Max[0]) && overlap1(s.y0, s.y1, view.Min[1], view.Max[1])
}

func overlap1(a, b, lo, hi float64) bool {
	if a > b {
		a, b = b, a
	}
	return a <= hi && b >= lo
}
