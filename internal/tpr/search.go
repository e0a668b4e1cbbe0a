package tpr

import (
	"fmt"
	"math"

	"dynq/internal/geom"
	"dynq/internal/stats"
	"dynq/internal/trajectory"
)

// Match is one query answer: the object's current motion state and the
// time interval during which it satisfies the query.
type Match struct {
	Entry   Entry
	Overlap geom.Interval
}

// Now returns the latest reference time in the tree — queries must not
// start before it.
func (t *Tree) Now() float64 { return t.now }

func (t *Tree) checkQuery(w geom.Box, tw geom.Interval) error {
	if len(w) != t.dims {
		return fmt.Errorf("tpr: query has %d dims, tree has %d", len(w), t.dims)
	}
	if tw.Empty() {
		return fmt.Errorf("tpr: query time window is empty")
	}
	if tw.Lo < t.now {
		return fmt.Errorf("tpr: query window starts at %g, before the tree's current time %g (the TPR index answers present/future queries; use the NSI index for history)", tw.Lo, t.now)
	}
	return nil
}

// SearchDuring returns every object anticipated to be inside the window
// at some time in tw, with the exact time interval it stays inside
// (assuming motion states do not change). One visit per node is charged
// to c with the usual leaf/internal accounting.
func (t *Tree) SearchDuring(w geom.Box, tw geom.Interval, c *stats.Counters) ([]Match, error) {
	if err := t.checkQuery(w, tw); err != nil {
		return nil, err
	}
	var out []Match
	if t.root != nil {
		t.searchNode(t.root, w, tw, c, &out)
	}
	c.AddResults(len(out))
	return out, nil
}

func (t *Tree) searchNode(n *node, w geom.Box, tw geom.Interval, c *stats.Counters, out *[]Match) {
	c.AddRead(n.leaf)
	if n.leaf {
		for _, e := range n.entries {
			c.AddDistanceComps(1)
			iv := tw
			for i := 0; i < t.dims && !iv.Empty(); i++ {
				iv = e.coord(i).SolveBetween(w[i].Lo, w[i].Hi, iv)
			}
			if !iv.Empty() {
				*out = append(*out, Match{Entry: e, Overlap: iv})
			}
		}
		return
	}
	for _, ch := range n.children {
		c.AddDistanceComps(1)
		if !ch.bound.overlapWindow(w, tw).Empty() {
			t.searchNode(ch, w, tw, c, out)
		}
	}
}

// SearchTrajectory adapts the predictive dynamic query to the TPR index
// (the paper's future work (iii)): given the observer's trajectory, it
// returns each object anticipated to enter the moving window, with its
// visibility episodes — computed against the objects' *current* motion
// states. Both the window borders and the anticipated positions are
// linear in time, so node pruning and the exact per-object test reduce to
// the same linear-inequality machinery as PDQ. The trajectory must not
// start before the tree's current time.
func (t *Tree) SearchTrajectory(traj *trajectory.Trajectory, c *stats.Counters) ([]Match, error) {
	if traj.Dims() != t.dims {
		return nil, fmt.Errorf("tpr: trajectory has %d dims, tree has %d", traj.Dims(), t.dims)
	}
	if traj.TimeSpan().Lo < t.now {
		return nil, fmt.Errorf("tpr: trajectory starts at %g, before the tree's current time %g", traj.TimeSpan().Lo, t.now)
	}
	var out []Match
	if t.root != nil {
		t.searchTrajNode(t.root, traj, c, &out)
	}
	c.AddResults(len(out))
	return out, nil
}

func (t *Tree) searchTrajNode(n *node, traj *trajectory.Trajectory, c *stats.Counters, out *[]Match) {
	c.AddRead(n.leaf)
	keys := traj.Keys()
	if n.leaf {
		for _, e := range n.entries {
			c.AddDistanceComps(1)
			var set geom.IntervalSet
			for j := 0; j+1 < len(keys); j++ {
				set.Add(t.entryVsTrapezoid(e, keys[j], keys[j+1]))
			}
			if !set.Empty() {
				*out = append(*out, Match{Entry: e, Overlap: set.Hull()})
			}
		}
		return
	}
	for _, ch := range n.children {
		c.AddDistanceComps(1)
		visit := false
		for j := 0; j+1 < len(keys) && !visit; j++ {
			if !t.tpbrVsTrapezoid(ch.bound, keys[j], keys[j+1]).Empty() {
				visit = true
			}
		}
		if visit {
			t.searchTrajNode(ch, traj, c, out)
		}
	}
}

// entryVsTrapezoid returns the times in [a.T, b.T] during which the
// anticipated position lies inside the interpolated window.
func (t *Tree) entryVsTrapezoid(e Entry, a, b trajectory.Key) geom.Interval {
	iv := geom.Interval{Lo: a.T, Hi: b.T}
	for i := 0; i < t.dims && !iv.Empty(); i++ {
		winLo := geom.LinearBetween(a.T, a.Window[i].Lo, b.T, b.Window[i].Lo)
		winHi := geom.LinearBetween(a.T, a.Window[i].Hi, b.T, b.Window[i].Hi)
		x := e.coord(i)
		iv = x.Sub(winLo).SolveGE(0, iv)
		iv = winHi.Sub(x).SolveGE(0, iv)
	}
	return iv
}

// tpbrVsTrapezoid returns the times in [a.T, b.T] during which the moving
// bound can overlap the interpolated window.
func (t *Tree) tpbrVsTrapezoid(b tpbr, a, k trajectory.Key) geom.Interval {
	iv := geom.Interval{Lo: a.T, Hi: k.T}
	for i := 0; i < t.dims && !iv.Empty(); i++ {
		winLo := geom.LinearBetween(a.T, a.Window[i].Lo, k.T, k.Window[i].Lo)
		winHi := geom.LinearBetween(a.T, a.Window[i].Hi, k.T, k.Window[i].Hi)
		bLo := geom.Linear{A: b.posLo[i], B: b.velLo[i], T0: b.ref}
		bHi := geom.Linear{A: b.posHi[i], B: b.velHi[i], T0: b.ref}
		// Overlap: bound's lower border ≤ window's upper AND bound's
		// upper ≥ window's lower.
		iv = bLo.Sub(winHi).SolveLE(0, iv)
		iv = bHi.Sub(winLo).SolveGE(0, iv)
	}
	return iv
}

// --- insertion / deletion ------------------------------------------------

func (t *Tree) insert(e Entry) {
	if t.root == nil {
		t.root = &node{leaf: true}
	}
	if split := t.insertAt(t.root, e); split != nil {
		old := t.root
		t.root = &node{
			leaf:     false,
			children: []*node{old, split},
		}
		t.root.bound = old.bound.union(split.bound)
	}
}

func (t *Tree) insertAt(n *node, e Entry) *node {
	if n.leaf {
		n.entries = append(n.entries, e)
		n.bound = n.bound.addEntry(e)
		if len(n.entries) > t.maxEntries {
			return t.splitLeaf(n)
		}
		return nil
	}
	best := t.chooseChild(n, e)
	if split := t.insertAt(n.children[best], e); split != nil {
		n.children = append(n.children, split)
		// The new entry may live in the sibling, so the parent bound must
		// absorb it too.
		n.bound = n.bound.union(split.bound)
		if len(n.children) > t.maxEntries {
			nb := t.splitInternal(n)
			n.bound = boundOfChildren(n.children)
			return nb
		}
	}
	n.bound = n.bound.union(n.children[best].bound)
	return nil
}

// chooseChild picks the child whose integral-area metric grows least.
func (t *Tree) chooseChild(n *node, e Entry) int {
	best, bestCost := 0, math.Inf(1)
	for i, ch := range n.children {
		before := ch.bound.integralArea(t.now, t.horizon)
		after := ch.bound.addEntry(e).integralArea(t.now, t.horizon)
		cost := after - before
		if cost < bestCost || (cost == bestCost && after < ch.bound.integralArea(t.now, t.horizon)) {
			best, bestCost = i, cost
		}
	}
	return best
}

// splitLeaf partitions an over-full leaf by the dimension/order with the
// lowest summed integral metric (an R*-flavoured split on anticipated
// positions at now+horizon/2).
func (t *Tree) splitLeaf(n *node) *node {
	mid := t.now + t.horizon/2
	order := bestSplitOrder(len(n.entries), t.dims, func(i, d int) float64 {
		return n.entries[i].posAt(mid)[d]
	})
	half := len(n.entries) / 2
	keep := make([]Entry, 0, half)
	move := make([]Entry, 0, len(n.entries)-half)
	for k, idx := range order {
		if k < half {
			keep = append(keep, n.entries[idx])
		} else {
			move = append(move, n.entries[idx])
		}
	}
	n.entries = keep
	n.bound = boundOfEntries(keep)
	sib := &node{leaf: true, entries: move, bound: boundOfEntries(move)}
	return sib
}

func (t *Tree) splitInternal(n *node) *node {
	mid := t.now + t.horizon/2
	order := bestSplitOrder(len(n.children), t.dims, func(i, d int) float64 {
		b := n.children[i].bound.boxAt(mid)
		return b[d].Mid()
	})
	half := len(n.children) / 2
	keep := make([]*node, 0, half)
	move := make([]*node, 0, len(n.children)-half)
	for k, idx := range order {
		if k < half {
			keep = append(keep, n.children[idx])
		} else {
			move = append(move, n.children[idx])
		}
	}
	n.children = keep
	n.bound = boundOfChildren(keep)
	return &node{leaf: false, children: move, bound: boundOfChildren(move)}
}

// bestSplitOrder sorts indices by the coordinate (at the evaluation time)
// of the dimension with the largest spread — a cheap axis choice that
// keeps anticipated positions clustered.
func bestSplitOrder(n, dims int, coord func(i, d int) float64) []int {
	bestDim, bestSpread := 0, -1.0
	for d := 0; d < dims; d++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < n; i++ {
			v := coord(i, d)
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		if s := hi - lo; s > bestSpread {
			bestDim, bestSpread = d, s
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	d := bestDim
	// insertion sort (n ≤ fanout+1)
	for i := 1; i < n; i++ {
		for j := i; j > 0 && coord(order[j], d) < coord(order[j-1], d); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	return order
}

func boundOfEntries(es []Entry) tpbr {
	if len(es) == 0 {
		return tpbr{}
	}
	b := emptyTPBR(len(es[0].Pos))
	for _, e := range es {
		b = b.addEntry(e)
	}
	return b
}

func boundOfChildren(cs []*node) tpbr {
	b := tpbr{}
	first := true
	for _, c := range cs {
		if first {
			b = c.bound
			first = false
		} else {
			b = b.union(c.bound)
		}
	}
	return b
}

// remove deletes the entry (found by descending bounds that can contain
// its anticipated position), condensing under-full leaves by reinsertion.
func (t *Tree) remove(e Entry) bool {
	if t.root == nil {
		return false
	}
	var orphans []Entry
	ok := t.removeAt(t.root, e, &orphans)
	if !ok {
		return false
	}
	// Shrink the root.
	for !t.root.leaf && len(t.root.children) == 1 {
		t.root = t.root.children[0]
	}
	if t.root.leaf && len(t.root.entries) == 0 {
		t.root = nil
	}
	for _, o := range orphans {
		t.insert(o)
	}
	return true
}

func (t *Tree) removeAt(n *node, e Entry, orphans *[]Entry) bool {
	if n.leaf {
		for i, cur := range n.entries {
			if cur.ID == e.ID {
				n.entries = append(n.entries[:i], n.entries[i+1:]...)
				n.bound = boundOfEntries(n.entries)
				return true
			}
		}
		return false
	}
	for i, ch := range n.children {
		// The entry's position at the child's reference time must lie
		// inside the child's bound for the child to possibly hold it.
		if !containsEntry(ch.bound, e) {
			continue
		}
		if !t.removeAt(ch, e, orphans) {
			continue
		}
		if underfull(ch, t.minEntries) {
			// Dissolve the child; reinsert its contents.
			n.children = append(n.children[:i], n.children[i+1:]...)
			collectEntries(ch, orphans)
		}
		n.bound = boundOfChildren(n.children)
		return true
	}
	return false
}

func underfull(n *node, min int) bool {
	if n.leaf {
		return len(n.entries) < min
	}
	return len(n.children) < min
}

func collectEntries(n *node, out *[]Entry) {
	if n.leaf {
		*out = append(*out, n.entries...)
		return
	}
	for _, ch := range n.children {
		collectEntries(ch, out)
	}
}

// containsEntry conservatively tests whether the bound can hold the
// entry: the entry's position and velocity at the bound's reference time
// must be inside the bound's position/velocity ranges.
func containsEntry(b tpbr, e Entry) bool {
	if b.empty() {
		return false
	}
	for i := range b.posLo {
		p := e.Pos[i] + e.Vel[i]*(b.ref-e.RefTime)
		if p < b.posLo[i]-1e-9 || p > b.posHi[i]+1e-9 {
			return false
		}
		if e.Vel[i] < b.velLo[i]-1e-9 || e.Vel[i] > b.velHi[i]+1e-9 {
			return false
		}
	}
	return true
}
