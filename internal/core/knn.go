package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"dynq/internal/geom"
	"dynq/internal/pager"
	"dynq/internal/rtree"
	"dynq/internal/stats"
)

// Neighbor is one k-nearest-neighbor answer: the object's segment and its
// distance from the query point at the query time.
type Neighbor struct {
	ID   rtree.ObjectID
	Seg  geom.Segment
	Dist float64
}

// KNN finds the k objects nearest to point p at time t, using best-first
// search over the index (the Roussopoulos/Hjaltason-Samet strategy the
// paper's priority-queue design builds on, [17,7]). Only segments whose
// validity interval contains t are candidates; distance is to the
// object's interpolated position at t.
func KNN(tree *rtree.Tree, p geom.Point, t float64, k int, c *stats.Counters) ([]Neighbor, error) {
	return KNNCtx(context.Background(), tree, p, t, k, c)
}

// KNNCtx is KNN with cooperative cancellation: the context is checked
// before every node fetch, so a cancelled or expired query stops within
// one page fetch and returns the context's error.
func KNNCtx(ctx context.Context, tree *rtree.Tree, p geom.Point, t float64, k int, c *stats.Counters) ([]Neighbor, error) {
	return knn(ctx, tree, p, t, k, c)
}

// knn is the best-first search, over one state of the tree. Items pop in
// increasing distance, so the i-th distinct object popped is exactly the
// i-th nearest neighbor — no distance bound is needed for correctness. An
// entry alive at t is copied off the page once, into kept, and only the
// entries that pop as answers become Neighbors.
func knn(ctx context.Context, tree *rtree.Tree, p geom.Point, t float64, k int, c *stats.Counters) ([]Neighbor, error) {
	d := tree.Config().Dims
	if len(p) != d {
		return nil, fmt.Errorf("core: query point has %d dims, index has %d", len(p), d)
	}
	if k <= 0 {
		return nil, fmt.Errorf("core: k must be positive, got %d", k)
	}
	var out []Neighbor
	err := tree.Read(func(r rtree.Reader) error {
		root, _, ok := r.Root()
		if !ok {
			return nil
		}
		out = make([]Neighbor, 0, min(k, r.Size()))
		var (
			slab rtree.Slab
			kept []rtree.LeafEntry // the entries queued object items name
			box  = make(geom.Box, d+2)
			pq   queue[knnItem, *knnItem]
		)
		visit := func(v rtree.NodeView) error {
			if pq == nil {
				// The first node visited, the root: its fanout sizes the
				// queue and kept, so that they rarely grow.
				n := max(v.Len(), tree.Config().MaxLeafEntries())
				pq, kept = make(queue[knnItem, *knnItem], 0, 2*n), make([]rtree.LeafEntry, 0, n)
			}
			for i := 0; i < v.Len(); i++ {
				c.AddDistanceComps(1)
				if v.Leaf() {
					if !v.EntryTime(i).ContainsValue(t) {
						continue
					}
					slot := len(kept)
					kept = append(kept, rtree.LeafEntry{})
					e := &kept[slot]
					e.ID = v.KeepSeg(i, &slab, &e.Seg)
					dist := math.Sqrt(e.Seg.DistSqAt(t, p))
					pq.push(knnItem{isObj: true, dist: dist, obj: e.ID, slot: int32(slot)})
					continue
				}
				// Prune subtrees with no segment alive at t: alive needs
				// some start ≤ t and some end ≥ t.
				if v.ChildBox(i, box); box[d].Lo > t || box[d+1].Hi < t {
					continue
				}
				pq.push(knnItem{node: v.ChildID(i), dist: boxDist(box[:d], p)})
			}
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := r.View(root, c, visit); err != nil {
			return err
		}
		for len(pq) > 0 {
			item := pq.pop()
			if item.isObj {
				// An object's consecutive segments share an endpoint, so at
				// that instant both are candidates: the first to pop, the
				// nearer, is the neighbor.
				if !slices.ContainsFunc(out, func(nb Neighbor) bool { return nb.ID == item.obj }) {
					e := &kept[item.slot]
					out = append(out, Neighbor{ID: e.ID, Seg: e.Seg, Dist: item.dist})
					if len(out) >= k {
						break
					}
				}
				continue
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := r.View(item.node, c, visit); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	c.AddResults(len(out))
	slices.SortFunc(out, CompareNeighbors)
	return out, nil
}

// CompareNeighbors orders neighbors by distance, ties by id: the order of
// every k-nearest-neighbor answer.
func CompareNeighbors(a, b Neighbor) int {
	if c := cmp.Compare(a.Dist, b.Dist); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// boxDist is the minimum Euclidean distance from p to the spatial box.
func boxDist(b geom.Box, p geom.Point) float64 {
	s := 0.0
	for i := range b {
		switch {
		case p[i] < b[i].Lo:
			d := b[i].Lo - p[i]
			s += d * d
		case p[i] > b[i].Hi:
			d := p[i] - b[i].Hi
			s += d * d
		}
	}
	return math.Sqrt(s)
}

// knnItem is a subtree or an object queued by the best-first search. It
// holds no pointer: an object item names its entry by index in the call's
// kept entries.
type knnItem struct {
	dist  float64
	obj   rtree.ObjectID
	node  pager.PageID
	slot  int32 // the object's entry, when isObj
	isObj bool
}

func (a *knnItem) less(b *knnItem) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	// Objects before nodes at equal distance, then by id for determinism.
	if a.isObj != b.isObj {
		return a.isObj
	}
	if a.isObj {
		return a.obj < b.obj
	}
	return a.node < b.node
}
