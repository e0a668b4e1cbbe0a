package core

import (
	"fmt"
	"sort"

	"dynq/internal/cache"
	"dynq/internal/rtree"
	"dynq/internal/stats"
	"dynq/internal/trajectory"
)

// ContinuousCount evaluates the aggregate COUNT(*) of a dynamic query —
// how many objects are inside the moving window at each sample time —
// using one predictive session and a disappearance-time heap, so the
// whole series costs one incremental traversal instead of one range
// aggregation per sample (the paper's future work (ii): dynamic queries
// with aggregation).
//
// Sample times must be increasing and lie within the trajectory's span.
func ContinuousCount(tree *rtree.Tree, traj *trajectory.Trajectory, times []float64, c *stats.Counters) ([]int, error) {
	if len(times) == 0 {
		return nil, nil
	}
	if !sort.Float64sAreSorted(times) {
		return nil, fmt.Errorf("core: sample times must be sorted")
	}
	span := traj.TimeSpan()
	if times[0] < span.Lo || times[len(times)-1] > span.Hi {
		return nil, fmt.Errorf("core: sample times [%g,%g] escape the trajectory span %v",
			times[0], times[len(times)-1], span)
	}
	pdq, err := NewPDQ(tree, traj, PDQOptions{}, c)
	if err != nil {
		return nil, err
	}
	defer pdq.Close()

	// Track visible episodes keyed by (object, episode start): an object
	// re-entering the view is a fresh episode. cache evicts on episode
	// end.
	live := cache.New[struct{}]()
	counts := make([]int, len(times))
	prev := span.Lo
	key := func(r Result) uint64 {
		// Object id mixed with the episode's appear time; collisions
		// would require two episodes of one object starting at the same
		// instant, which visibility geometry excludes.
		return uint64(r.ID)<<20 ^ uint64(int64(r.Appear*1e6))&(1<<20-1)
	}
	for i, t := range times {
		// Pull every episode appearing up to t.
		for {
			r, ok, err := pdq.GetNext(prev, t)
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			if r.Disappear >= t {
				live.Put(key(r), struct{}{}, r.Disappear)
			}
		}
		// Strictly-before eviction: the count samples the visible set AT
		// instant t, so an episode ending exactly at t still overlaps it.
		live.AdvanceBefore(t)
		counts[i] = live.Len()
		prev = t
	}
	return counts, nil
}
