package core

import (
	"fmt"

	"dynq/internal/geom"
	"dynq/internal/pager"
	"dynq/internal/rtree"
	"dynq/internal/stats"
)

// NPDQOptions is empty: an NPDQ session has one mode, the paper's. The
// type stays because the nested benchmark module compiles against it.
type NPDQOptions struct{}

// NPDQ evaluates a non-predictive dynamic query (Section 4.2): a stream
// of snapshot queries whose future motion is unknown. Each Next call
// returns the objects that satisfy the new snapshot and were not
// retrieved by the immediately preceding one, pruning every index node R
// whose overlap with the new query Q is covered by the previous query P
// — Lemma 1's discardability test, discardable(P,Q,R) ⇔ (Q∩R) ⊂ P —
// evaluated on the dual temporal axes of Figure 5(b).
//
// Membership is decided at bounding-box granularity, as in the paper:
// results are candidates whose exact visibility interval is reported when
// non-empty, and the client performs the final exact check when rendering
// (it holds the full segment geometry either way). This is the only
// granularity at which the discardability lemma is sound: a segment can
// box-match P while its exact trajectory misses P's window, so an exact
// answer would have to give up discarding.
//
// Node modification stamps guard discardability under concurrent inserts:
// a node changed since P ran cannot be discarded on P's authority.
//
// NPDQ is not safe for concurrent Next calls.
type NPDQ struct {
	tree *rtree.Tree
	c    *stats.Counters

	hasPrev   bool
	cur, prev rtree.Query // double-buffered: Next fills cur, then swaps
	prevSeq   uint64      // tree.ModSeq() observed before the previous query ran

	// Scratch reused across visits and frames.
	stack []pager.PageID // nodes still to visit, next on top
	box   geom.Box       // one child box, for the discardability test

	// The running frame's answer and its coordinates: the caller's after
	// Next returns, so neither is reused.
	out  []Result
	slab rtree.Slab
}

// NewNPDQ starts a non-predictive session over the tree, charging costs
// to c. The tree should use the dual-temporal-axes layout
// (rtree.Config.DualTime); with the single-axis layout the session is
// still correct but discardability almost never fires, which is exactly
// the problem Figure 5 illustrates (the ablation benchmark measures it).
func NewNPDQ(tree *rtree.Tree, _ NPDQOptions, c *stats.Counters) *NPDQ {
	return &NPDQ{tree: tree, c: c, box: make(geom.Box, tree.Config().Dims+2)}
}

// Next evaluates the snapshot query (spatial window during time interval
// tw) and returns only the answers not retrieved by the previous Next
// call. The first call behaves as a plain snapshot query.
func (nq *NPDQ) Next(window geom.Box, tw geom.Interval) ([]Result, error) {
	if len(window) != nq.tree.Config().Dims {
		return nil, fmt.Errorf("core: query has %d dims, index has %d", len(window), nq.tree.Config().Dims)
	}
	if tw.Empty() {
		return nil, fmt.Errorf("core: query time window is empty")
	}
	nq.cur.Fill(window, tw)
	nq.out, nq.slab = nil, rtree.Slab{}
	var seqBefore uint64
	// The whole frame is one read of the tree: a concurrent deletion may
	// free or re-use pages, and a page id on the stack must stay the node
	// it was when its parent was read.
	err := nq.tree.Read(func(r rtree.Reader) error {
		// Observe the modification sequence before traversal: any node
		// modified at or after this point will carry a larger stamp, and a
		// future query must not discard it on this query's authority.
		seqBefore = r.ModSeq()
		// Depth-first in entry order, off an explicit stack.
		nq.stack = nq.stack[:0]
		if root, _, ok := r.Root(); ok {
			nq.stack = append(nq.stack, root)
		}
		for len(nq.stack) > 0 {
			id := nq.stack[len(nq.stack)-1]
			nq.stack = nq.stack[:len(nq.stack)-1]
			if err := r.View(id, nq.c, nq.visit); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := nq.out
	nq.out, nq.slab = nil, rtree.Slab{} // the answer is the caller's
	nq.c.AddResults(len(out))

	nq.hasPrev = true
	nq.cur, nq.prev = nq.prev, nq.cur
	nq.prevSeq = seqBefore
	return out, nil
}

// Reset forgets the previous query: the next call behaves like a first
// snapshot. Use it when the observer teleports (the paper's "snapshot
// mode").
func (nq *NPDQ) Reset() { nq.hasPrev = false }

// visit examines one node in place: a leaf's new answers go to nq.out, an
// internal node's surviving children onto the stack.
func (nq *NPDQ) visit(v rtree.NodeView) error {
	// One distance computation per entry examined.
	nq.c.AddDistanceComps(v.Len())
	if v.Leaf() {
		nq.collectLeaf(v)
		return nil
	}
	// Timestamp guard (Section 4.2's update management). Every insert and
	// every delete stamps all nodes along its path, even those whose box it
	// leaves as it was, so an ancestor's stamp dominates its descendants':
	// Stamp ≤ prevSeq proves nothing under the node changed since the
	// previous query ran, making Lemma 1 applicable to its children. A
	// dirty node's children must all be visited — each visited child then
	// re-reads its own stamp, so pruning resumes in clean subtrees below.
	canDiscard := nq.hasPrev && v.Stamp() <= nq.prevSeq
	base, pruned := len(nq.stack), 0
	for k := 0; k < v.Len(); k++ {
		if !v.ChildOverlaps(k, nq.cur.Box) {
			continue
		}
		if canDiscard && nq.discardable(v, k) {
			pruned++
			continue
		}
		nq.stack = append(nq.stack, v.ChildID(k))
	}
	nq.c.AddPruned(pruned)
	// The first surviving child is visited next.
	for i, j := base, len(nq.stack)-1; i < j; i, j = i+1, j-1 {
		nq.stack[i], nq.stack[j] = nq.stack[j], nq.stack[i]
	}
	return nil
}

// discardable implements Lemma 1 for child k's box R: R may be skipped iff
// every point of Q∩R lies inside P — everything of R relevant to Q was
// already retrieved by the previous query. The caller has established
// that R's subtree is unchanged since P ran.
func (nq *NPDQ) discardable(v rtree.NodeView, k int) bool {
	v.ChildBox(k, nq.box)
	for i, iv := range nq.cur.Box {
		nq.box[i] = iv.Intersect(nq.box[i])
	}
	return nq.prev.Box.Contains(nq.box)
}

// collectLeaf scans a leaf's entries where they lie, one box-test scan per
// candidate, and copies out only those it delivers.
func (nq *NPDQ) collectLeaf(v rtree.NodeView) {
	// Geometric suppression ("this segment also satisfied P, so the
	// client already has it") is only valid for segments that were
	// present when P ran. A per-entry insertion time is not stored, but
	// the leaf's stamp bounds it: in a leaf modified since P, any entry
	// might be new, so everything matching Q is delivered (over-delivery
	// is safe — the client cache upserts by object id).
	leafClean := nq.hasPrev && v.Stamp() <= nq.prevSeq
	for k, n := 0, v.Len(); ; k++ {
		if k = v.NextBoxOverlap(k, n, &nq.cur); k == n {
			return
		}
		if leafClean && v.EntryOverlaps(k, &nq.prev) {
			// Segment-level suppression: this segment was part of the
			// previous answer, so the client already has the object.
			continue
		}
		// Candidate semantics: report the exact episode when the
		// trajectory really crosses the window, otherwise the
		// conservative validity∩query window for the client to re-check.
		ov := v.EntryOverlapTime(k, &nq.cur)
		if ov.Empty() {
			ov = v.EntryTime(k).Intersect(nq.cur.Window())
		}
		if nq.out == nil {
			nq.out = make([]Result, 0, 8) // grow in step with the slab
		}
		// Filled where it stays (rtree.NodeView.KeepSeg).
		nq.out = append(nq.out, Result{})
		r := &nq.out[len(nq.out)-1]
		r.ID, r.Appear, r.Disappear = v.KeepSeg(k, &nq.slab, &r.Seg), ov.Lo, ov.Hi
	}
}
