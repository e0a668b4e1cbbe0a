package shard

import (
	"context"
	"slices"

	"dynq/internal/core"
	"dynq/internal/geom"
	"dynq/internal/rtree"
)

// Snapshot answers one spatio-temporal range query by fanning the search
// out across every shard and concatenating the per-shard answers in shard
// order (deterministic for an unchanged engine). limit > 0 caps both the
// per-shard traversals and the merged answer; which matches survive the
// cap is unspecified. The database passes 0: limit stays because the
// nested benchmark module calls this signature. The context is checked at
// node-visit granularity inside every shard.
func (e *Engine) Snapshot(ctx context.Context, spatial geom.Box, tw geom.Interval, limit int) ([]rtree.Match, error) {
	parts := make([][]rtree.Match, len(e.shards))
	err := e.fanOutTraced(ctx, "snapshot/shard", "snapshot", func(i int, sh *Shard) error {
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		ms, err := sh.Tree.RangeSearchCtx(ctx, spatial, tw, rtree.SearchOptions{Limit: limit}, &sh.Counters)
		parts[i] = ms
		return err
	})
	if err != nil {
		return nil, err
	}
	out := parts[0] // one part is the answer: nothing to copy
	for _, ms := range parts[1:] {
		out = append(out, ms...)
	}
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out, nil
}

// KNN finds the k nearest neighbors by running a best-first search on
// every shard in parallel, then sorting the per-shard answers together
// (core.CompareNeighbors) and keeping the first k. Shards partition the
// objects, so no object is in two answers.
func (e *Engine) KNN(ctx context.Context, p geom.Point, t float64, k int) ([]core.Neighbor, error) {
	parts := make([][]core.Neighbor, len(e.shards))
	err := e.fanOutTraced(ctx, "knn/shard", "knn", func(i int, sh *Shard) error {
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		nbs, err := core.KNNCtx(ctx, sh.Tree, p, t, k, &sh.Counters)
		parts[i] = nbs
		return err
	})
	if err != nil {
		return nil, err
	}
	if len(parts) == 1 {
		return parts[0], nil // already sorted and at most k long
	}
	var out []core.Neighbor
	for _, nbs := range parts {
		out = append(out, nbs...)
	}
	slices.SortFunc(out, core.CompareNeighbors)
	if len(out) > k {
		out = out[:k]
	}
	return out, nil
}

// SelfJoin finds every pair of objects within delta of each other at time
// t across the whole sharded population: the N self-joins plus the
// N·(N-1)/2 cross-shard joins all run in parallel on the worker pool.
// Pairs are normalized to A < B (an object pair spans at most one task,
// so no deduplication is needed) and sorted for a deterministic answer.
func (e *Engine) SelfJoin(delta, t float64) ([]core.JoinPair, error) {
	n := len(e.shards)
	var fns []func() error
	parts := make([][]core.JoinPair, n*(n+1)/2)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			i, j := i, j
			slot := len(fns)
			fns = append(fns, func() error {
				a, b := e.shards[i], e.shards[j]
				// Both shard locks, in ascending shard order (i <= j):
				// with writers holding at most one shard lock and every
				// multi-shard reader ordering ascending, no cycle forms.
				a.mu.RLock()
				defer a.mu.RUnlock()
				if j != i {
					b.mu.RLock()
					defer b.mu.RUnlock()
				}
				pairs, err := core.DistanceJoin(a.Tree, b.Tree, delta, t, &a.Counters)
				parts[slot] = pairs
				return err
			})
		}
	}
	if err := e.run(fns); err != nil {
		return nil, err
	}
	var out []core.JoinPair
	for _, pairs := range parts {
		for _, p := range pairs {
			if p.A > p.B {
				p.A, p.B = p.B, p.A
				p.SegA, p.SegB = p.SegB, p.SegA
			}
			out = append(out, p)
		}
	}
	slices.SortFunc(out, core.ComparePairs)
	return out, nil
}
