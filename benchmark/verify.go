package main

import (
	"fmt"
	"math"

	"dynq"
	"dynq/internal/cache"
	"dynq/internal/geom"
)

// Strategy indices, in the order a tick flies them.
const (
	naive = iota
	pdq
	npdq
	strategies
)

var strategyName = [strategies]string{"naive", "pdq", "npdq"}

// answers holds what one tick returned: per strategy, per frame.
type answers [strategies][][]dynq.Result

// edgeTol is how close (in space or time units) an object may sit to a
// window border or a segment end before "inside at instant T" is treated
// as undecided. Predictive and snapshot evaluation interpolate the
// window differently, so they may disagree by rounding exactly there.
const edgeTol = 1e-6

// checkTick verifies one tick's answers and returns, per strategy, which
// frames were wrong.
//
//   - naive: no duplicates; frame bruteFrame equals a linear scan of the
//     model (exact trajectory test).
//   - npdq: the client-side set rebuilt from the deltas (keep what still
//     box-matches the new window, add the delta, apply the exact test)
//     equals the naive answer of the same frame.
//   - pdq: no visibility episode is delivered twice (on a quiet index), and
//     the client cache
//     (internal/cache, keyed on disappearance time) holds at each frame
//     boundary exactly the objects the next naive frame finds inside the
//     window at that instant.
//
// Only stable objects are compared (all of them, when nothing writes
// concurrently).
func checkTick(m *model, tk *tick, ans *answers, bruteFrame int) (wrong [strategies][]string) {
	n := len(tk.views)
	for s := range wrong {
		wrong[s] = make([]string, n)
	}

	naiveKeys := make([]map[segKey]struct{}, n)
	for i, rs := range ans[naive] {
		keys := make(map[segKey]struct{}, len(rs))
		for _, r := range rs {
			if !m.stable(r.ID) {
				continue
			}
			k := segKey{r.ID, r.Segment.T0}
			if _, dup := keys[k]; dup {
				wrong[naive][i] = fmt.Sprintf("object %d returned twice", r.ID)
			}
			keys[k] = struct{}{}
		}
		naiveKeys[i] = keys
		if i == bruteFrame {
			if want := m.snapshot(tk.views[i], tk.times[i]); !sameKeys(keys, want) {
				wrong[naive][i] = fmt.Sprintf("%d segments, a scan of the model finds %d", len(keys), len(want))
			}
		}
	}

	held := map[segKey]seg{}
	for i, delta := range ans[npdq] {
		for k, s := range held {
			if !boxMatch(s, tk.views[i], tk.times[i]) {
				delete(held, k)
			}
		}
		for _, r := range delta {
			if m.stable(r.ID) {
				held[segKey{r.ID, r.Segment.T0}] = segOf(r.ID, r.Segment)
			}
		}
		v := tk.views[i]
		q := geom.Box{{Lo: v.Min[0], Hi: v.Max[0]}, {Lo: v.Min[1], Hi: v.Max[1]}, tk.times[i]}
		exact := make(map[segKey]struct{}, len(held))
		for k, s := range held {
			if s.geom().IntersectsBox(q) {
				exact[k] = struct{}{}
			}
		}
		if !sameKeys(exact, naiveKeys[i]) {
			wrong[npdq][i] = fmt.Sprintf("the set rebuilt from deltas has %d segments, the snapshot %d", len(exact), len(naiveKeys[i]))
		}
	}

	type episode struct {
		key    segKey
		appear float64
	}
	seen := map[episode]struct{}{}
	view := cache.New[dynq.Result]()
	for i, rs := range ans[pdq] {
		for _, r := range rs {
			if !m.stable(r.ID) {
				continue
			}
			e := episode{segKey{r.ID, r.Segment.T0}, r.Appear}
			if _, dup := seen[e]; dup && m.volatile == nil {
				// Under concurrent writes a node split may re-announce an
				// episode (the cache merges it); on a quiet index each
				// episode arrives exactly once.
				wrong[pdq][i] = fmt.Sprintf("object %d's episode at %g delivered twice", r.ID, r.Appear)
			}
			seen[e] = struct{}{}
			view.Put(r.ID, r, r.Disappear)
		}
		if i+1 == n {
			break
		}
		at := tk.times[i+1].Lo
		view.Advance(at)
		inside := map[uint64]dynq.Segment{}
		for _, r := range ans[naive][i+1] {
			if m.stable(r.ID) && r.Appear <= at {
				inside[r.ID] = r.Segment
			}
		}
		for _, r := range view.Values() {
			if _, ok := inside[r.ID]; ok {
				delete(inside, r.ID)
			} else if !onEdge(r.Segment, tk.views[i+1], at) {
				wrong[pdq][i] = fmt.Sprintf("object %d is in the client cache at t=%g but not in the window", r.ID, at)
			}
		}
		for id, s := range inside {
			if !onEdge(s, tk.views[i+1], at) {
				wrong[pdq][i] = fmt.Sprintf("object %d is in the window at t=%g but not in the client cache", id, at)
			}
		}
	}
	return wrong
}

func sameKeys(a, b map[segKey]struct{}) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

// onEdge reports whether the object moving along s is, at instant at,
// within edgeTol of a border of view or of an end of its segment.
func onEdge(s dynq.Segment, view dynq.Rect, at float64) bool {
	if math.Abs(at-s.T0) < edgeTol || math.Abs(at-s.T1) < edgeTol {
		return true
	}
	f := (at - s.T0) / (s.T1 - s.T0)
	for d := range s.From {
		p := s.From[d] + f*(s.To[d]-s.From[d])
		if math.Abs(p-view.Min[d]) < edgeTol || math.Abs(p-view.Max[d]) < edgeTol {
			return true
		}
	}
	return false
}
