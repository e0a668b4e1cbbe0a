package core

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"sort"

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
//
// This implements the paper's first listed direction of future work
// (Section 6 (i), after [24]): MovingKNN evaluates it along a query-point
// trajectory.
func KNN(tree *rtree.Tree, p geom.Point, t float64, k int, c *stats.Counters) ([]Neighbor, error) {
	return KNNCtx(context.Background(), tree, p, t, k, c)
}

// KNNCtx is KNN with cooperative cancellation: the context is checked
// before every node fetch, so a cancelled or expired query stops within
// one page fetch and returns the context's error.
func KNNCtx(ctx context.Context, tree *rtree.Tree, p geom.Point, t float64, k int, c *stats.Counters) ([]Neighbor, error) {
	return knn(ctx, tree, p, t, k, math.Inf(1), c)
}

// KNNBounded is KNN restricted to candidates within maxDist of the query
// point: subtrees and objects farther away are pruned up front. With
// maxDist = +Inf it degenerates to KNN. It may return fewer than k
// neighbors when fewer lie within the bound.
func KNNBounded(tree *rtree.Tree, p geom.Point, t float64, k int, maxDist float64, c *stats.Counters) ([]Neighbor, error) {
	return knn(context.Background(), tree, p, t, k, maxDist, c)
}

// knn is the best-first search, over one state of the tree. Items pop in
// increasing distance, so the i-th object popped is exactly the i-th
// nearest neighbor — no distance bound is needed for correctness; maxDist
// only keeps farther subtrees and objects out of the queue. Entries are
// tested on the page, and only a queued one is copied off it.
func knn(ctx context.Context, tree *rtree.Tree, p geom.Point, t float64, k int, maxDist float64, c *stats.Counters) ([]Neighbor, error) {
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
		var (
			slab  rtree.Slab
			entry rtree.LeafEntry
			box   = make(geom.Box, d+2)
		)
		pq := &knnHeap{{node: root}}
		for pq.Len() > 0 {
			item := heap.Pop(pq).(knnItem)
			if item.dist > maxDist {
				break // best-first: everything left is farther
			}
			if item.isObj {
				out = append(out, item.nb)
				if len(out) >= k {
					break
				}
				continue
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			err := r.View(item.node, c, func(v rtree.NodeView) error {
				for i := 0; i < v.Len(); i++ {
					c.AddDistanceComps(1)
					if v.Leaf() {
						if !v.EntryTime(i).ContainsValue(t) {
							continue
						}
						v.Entry(i, &entry)
						dist := math.Sqrt(entry.Seg.DistSqAt(t, p))
						if dist > maxDist {
							continue
						}
						e := v.Keep(i, &slab)
						heap.Push(pq, knnItem{isObj: true, dist: dist, nb: Neighbor{ID: e.ID, Seg: e.Seg, Dist: dist}})
						continue
					}
					// Prune subtrees with no segment alive at t: alive needs
					// some start ≤ t and some end ≥ t.
					if v.ChildBox(i, box); box[d].Lo > t || box[d+1].Hi < t {
						continue
					}
					if dist := boxDist(box[:d], p); dist <= maxDist {
						heap.Push(pq, knnItem{node: v.ChildID(i), dist: dist})
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	c.AddResults(len(out))
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].ID < out[j].ID
	})
	return out, nil
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

type knnItem struct {
	dist  float64
	isObj bool
	node  pager.PageID
	nb    Neighbor
}

type knnHeap []knnItem

func (h knnHeap) Len() int { return len(h) }
func (h knnHeap) Less(i, j int) bool {
	if h[i].dist != h[j].dist {
		return h[i].dist < h[j].dist
	}
	// Objects before nodes at equal distance, then by id for determinism.
	if h[i].isObj != h[j].isObj {
		return h[i].isObj
	}
	if h[i].isObj {
		return h[i].nb.ID < h[j].nb.ID
	}
	return h[i].node < h[j].node
}
func (h knnHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *knnHeap) Push(x any)   { *h = append(*h, x.(knnItem)) }
func (h *knnHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// MovingKNN evaluates k-nearest-neighbor queries along a moving query
// point — the paper's future work (i), following the moving-query-point
// technique of [24] (Song & Roussopoulos): each index evaluation fetches
// k+1 neighbors, and the gap between the k-th and (k+1)-th distances
// tells how far the configuration may drift before the answer *set* can
// change. While the query's displacement plus the worst-case object
// displacement (maxObjectSpeed·Δt) stays below half that gap — and every
// cached segment is still valid — subsequent samples reuse the cached
// membership, recomputing exact distances from the cached segments
// instead of touching the index.
//
// maxObjectSpeed must upper-bound every object's speed; pass a
// non-positive value to disable reuse (every sample searches the index).
// Sample times must be increasing.
func MovingKNN(tree *rtree.Tree, pos func(t float64) geom.Point, times []float64, k int, maxObjectSpeed float64, c *stats.Counters) ([][]Neighbor, error) {
	out := make([][]Neighbor, len(times))
	var (
		cached   []Neighbor // k+1 neighbors from the last evaluation
		gap      float64    // (d_{k+1} - d_k) / 2 at evaluation
		evalPos  geom.Point
		evalTime float64
	)
	reusable := func(p geom.Point, t float64) bool {
		if maxObjectSpeed <= 0 || len(cached) < k+1 {
			return false
		}
		drift := p.Dist(evalPos) + maxObjectSpeed*(t-evalTime)
		if drift >= gap {
			return false
		}
		for _, nb := range cached[:k] {
			if !nb.Seg.T.ContainsValue(t) {
				return false // the cached motion segment expired
			}
		}
		return true
	}
	for i, t := range times {
		p := pos(t)
		if reusable(p, t) {
			nbs := make([]Neighbor, k)
			for j, nb := range cached[:k] {
				nbs[j] = Neighbor{ID: nb.ID, Seg: nb.Seg, Dist: math.Sqrt(nb.Seg.DistSqAt(t, p))}
			}
			sort.Slice(nbs, func(a, b int) bool {
				if nbs[a].Dist != nbs[b].Dist {
					return nbs[a].Dist < nbs[b].Dist
				}
				return nbs[a].ID < nbs[b].ID
			})
			out[i] = nbs
			c.AddResults(k)
			continue
		}
		nbs, err := KNN(tree, p, t, k+1, c)
		if err != nil {
			return nil, err
		}
		if len(nbs) > k {
			cached = nbs
			gap = (nbs[k].Dist - nbs[k-1].Dist) / 2
			evalPos, evalTime = p.Clone(), t
			out[i] = nbs[:k]
		} else {
			cached = nil
			out[i] = nbs
		}
	}
	return out, nil
}
