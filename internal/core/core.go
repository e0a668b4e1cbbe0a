// Package core implements the paper's contribution: query processing for
// dynamic queries over mobile objects.
//
// A dynamic query (Definition 4) is a time-ordered series of snapshot
// queries posed by a moving observer. Three evaluation strategies are
// provided, matching Section 4 and the experimental comparison of
// Section 5:
//
//   - Naive: each snapshot re-executed from scratch against the index
//     (the baseline the paper improves on).
//   - PDQ (Section 4.1): the observer's trajectory is known; a priority
//     queue ordered by visibility-start time turns the whole dynamic
//     query into one incremental index traversal that touches each node
//     at most once, with live-update management (Figure 4).
//   - NPDQ (Section 4.2): the trajectory is unknown; each snapshot prunes
//     index nodes whose overlap with the current query was already
//     covered by the previous query (the discardability test, Lemma 1),
//     guarded by node modification timestamps under concurrent inserts.
//
// All strategies charge costs to stats.Counters using the paper's two
// metrics: disk accesses (node loads, split leaf/internal) and distance
// computations (geometric predicate evaluations, one per entry examined).
package core

import (
	"cmp"

	"dynq/internal/geom"
	"dynq/internal/rtree"
)

// Result is one object delivered to the client: the motion segment that
// made it visible and the visibility episode [Appear, Disappear] during
// which it stays inside the (moving) query window. The client caches the
// object keyed on Disappear (Section 4.1's caching note). Seg's points are
// the receiver's own: no other result, session or index page holds them.
type Result struct {
	ID        rtree.ObjectID
	Seg       geom.Segment
	Appear    float64
	Disappear float64
}

// CompareResults orders results by appearance time, ties by object id,
// then by segment start: the order of every merged multi-shard answer.
func CompareResults(a, b Result) int {
	if c := cmp.Compare(a.Appear, b.Appear); c != 0 {
		return c
	}
	if c := cmp.Compare(a.ID, b.ID); c != 0 {
		return c
	}
	return cmp.Compare(a.Seg.T.Lo, b.Seg.T.Lo)
}

// resultFromMatch converts an index match into a client result.
func resultFromMatch(m rtree.Match) Result {
	return Result{ID: m.ID, Seg: m.Seg, Appear: m.Overlap.Lo, Disappear: m.Overlap.Hi}
}
