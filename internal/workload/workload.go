// Package workload reproduces the experimental setup of Section 5: the
// mobile-object population (5000 objects, 100×100 space, 100 time units,
// ≈500k motion segments), and query trajectories at controlled overlap
// levels between consecutive snapshot queries.
//
// The paper measures at overlaps {0, 25, 50, 80, 90, 99.99}% and spatial
// ranges {8×8, 14×14, 20×20}, posing one snapshot query every 0.1 time
// unit and averaging subsequent-query cost over 50 consecutive snapshots
// per dynamic query.
package workload

import (
	"fmt"
	"math/rand"

	"dynq/internal/geom"
	"dynq/internal/motion"
	"dynq/internal/pager"
	"dynq/internal/rtree"
	"dynq/internal/trajectory"
)

// Overlaps are the paper's consecutive-snapshot overlap levels.
var Overlaps = []float64{0, 0.25, 0.50, 0.80, 0.90, 0.9999}

// Ranges are the paper's query window sides: small, medium, big.
var Ranges = []float64{8, 14, 20}

// FrameDt is the snapshot period: one query every 0.1 time unit.
const FrameDt = 0.1

// SubsequentFrames is the number of subsequent snapshot queries averaged
// per dynamic query in the paper's plots.
const SubsequentFrames = 50

// BuildIndex generates the paper's object population (optionally scaled
// down by objectScale ∈ (0,1] for quick runs) and bulk-loads it into a
// tree with the given layout at the paper's 0.5 fill factor.
func BuildIndex(cfg rtree.Config, objectScale float64, seed int64) (*rtree.Tree, int, error) {
	if objectScale <= 0 || objectScale > 1 {
		return nil, 0, fmt.Errorf("workload: objectScale must be in (0,1], got %g", objectScale)
	}
	sim := motion.PaperConfig()
	sim.Objects = int(float64(sim.Objects) * objectScale)
	if sim.Objects < 1 {
		sim.Objects = 1
	}
	sim.Seed = seed
	segs, err := motion.GenerateSegments(sim)
	if err != nil {
		return nil, 0, err
	}
	entries := make([]rtree.LeafEntry, len(segs))
	for i, s := range segs {
		entries[i] = rtree.LeafEntry{ID: rtree.ObjectID(s.ObjID), Seg: s.Seg}
	}
	tree, err := rtree.BulkLoad(cfg, pager.NewMemStore(), entries)
	if err != nil {
		return nil, 0, err
	}
	return tree, len(entries), nil
}

// BuildMixedIndex generates a population mixing mobile vehicles (the
// paper's main workload, ~100 segments each) with long-lived static
// objects — the landmarks, sensor fields and obstructions of the paper's
// introduction, one whole-duration zero-velocity segment each. This is
// the regime where NPDQ discardability has the most to prune (see
// DESIGN.md "Findings").
func BuildMixedIndex(cfg rtree.Config, nMobile, nStatic int, seed int64) (*rtree.Tree, int, error) {
	if nMobile < 0 || nStatic < 0 || nMobile+nStatic == 0 {
		return nil, 0, fmt.Errorf("workload: need a non-empty population")
	}
	var entries []rtree.LeafEntry

	if nMobile > 0 {
		sim := motion.PaperConfig()
		sim.Objects = nMobile
		sim.Seed = seed
		segs, err := motion.GenerateSegments(sim)
		if err != nil {
			return nil, 0, err
		}
		for _, s := range segs {
			entries = append(entries, rtree.LeafEntry{ID: rtree.ObjectID(s.ObjID), Seg: s.Seg})
		}
	}
	r := rand.New(rand.NewSource(seed + 7))
	for i := 0; i < nStatic; i++ {
		x, y := r.Float64()*100, r.Float64()*100
		entries = append(entries, rtree.LeafEntry{
			ID: rtree.ObjectID(1_000_000 + i),
			Seg: geom.Segment{
				T:     geom.Interval{Lo: 0, Hi: 100},
				Start: geom.Point{x, y},
				End:   geom.Point{x, y},
			},
		})
	}
	tree, err := rtree.BulkLoad(cfg, pager.NewMemStore(), entries)
	if err != nil {
		return nil, 0, err
	}
	return tree, len(entries), nil
}

// QueryConfig describes one dynamic-query workload point.
type QueryConfig struct {
	Range     float64 // query window side w
	Overlap   float64 // consecutive-snapshot overlap fraction ∈ [0,1)
	Frames    int     // subsequent snapshot queries after the first
	WorldSize float64 // data space side
	Duration  float64 // data time span
}

// PaperQuery returns the workload point for one (overlap, range) cell of
// the paper's figures.
func PaperQuery(overlap, rng float64) QueryConfig {
	return QueryConfig{
		Range:     rng,
		Overlap:   overlap,
		Frames:    SubsequentFrames,
		WorldSize: 100,
		Duration:  100,
	}
}

// Step returns the spatial displacement between consecutive snapshots:
// the window slides by (1-overlap)·w each frame, along one axis.
func (q QueryConfig) Step() float64 { return (1 - q.Overlap) * q.Range }

func (q QueryConfig) validate() error {
	if q.Range <= 0 || q.Range > q.WorldSize {
		return fmt.Errorf("workload: range %g out of (0, %g]", q.Range, q.WorldSize)
	}
	if q.Overlap < 0 || q.Overlap >= 1 {
		return fmt.Errorf("workload: overlap %g out of [0,1)", q.Overlap)
	}
	if q.Frames < 1 {
		return fmt.Errorf("workload: need at least 1 frame")
	}
	return nil
}

// Query is one generated dynamic query: the observer trajectory plus the
// per-frame snapshot decomposition (window and time interval per frame,
// frame 0 being the paper's "first query").
type Query struct {
	Traj    *trajectory.Trajectory
	Windows []geom.Box
	Times   []geom.Interval
}

// Generate builds one dynamic query: a random start position and a random
// axis-aligned heading, reflecting off the world border so the query
// stays over data (the trajectory becomes piecewise linear, which the
// PDQ key-snapshot representation captures directly).
func Generate(q QueryConfig, r *rand.Rand) (*Query, error) {
	if err := q.validate(); err != nil {
		return nil, err
	}
	nFrames := q.Frames + 1 // first + subsequent
	span := float64(nFrames) * FrameDt
	t0 := r.Float64() * (q.Duration - span)

	// Low-corner positions pos[0..nFrames] (one beyond the last frame so
	// the trajectory's time span covers the last frame's interval), kept
	// in [0, world-range] by reflecting the heading at the border.
	maxPos := q.WorldSize - q.Range
	step := q.Step()
	dirs := [][2]float64{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}
	dir := dirs[r.Intn(len(dirs))]

	pos := make([][2]float64, nFrames+1)
	stepDir := make([][2]float64, nFrames+1) // heading used to reach pos[f]
	pos[0] = [2]float64{r.Float64() * maxPos, r.Float64() * maxPos}
	for f := 1; f <= nFrames; f++ {
		nx := pos[f-1][0] + dir[0]*step
		ny := pos[f-1][1] + dir[1]*step
		if nx < 0 || nx > maxPos {
			dir[0] = -dir[0]
			nx = pos[f-1][0] + dir[0]*step
		}
		if ny < 0 || ny > maxPos {
			dir[1] = -dir[1]
			ny = pos[f-1][1] + dir[1]*step
		}
		pos[f] = [2]float64{clamp(nx, maxPos), clamp(ny, maxPos)}
		stepDir[f] = dir
	}

	// Key snapshots at the start, at every heading change, and at the end:
	// between keys the window moves at constant velocity, so the
	// interpolated trajectory reproduces every frame window exactly.
	var keys []trajectory.Key
	addKey := func(f int) {
		keys = append(keys, trajectory.Key{
			T:      t0 + float64(f)*FrameDt,
			Window: windowAt(pos[f][0], pos[f][1], q.Range),
		})
	}
	addKey(0)
	for f := 1; f < nFrames; f++ {
		if stepDir[f+1] != stepDir[f] {
			addKey(f)
		}
	}
	addKey(nFrames)

	windows := make([]geom.Box, nFrames)
	times := make([]geom.Interval, nFrames)
	for f := 0; f < nFrames; f++ {
		windows[f] = windowAt(pos[f][0], pos[f][1], q.Range)
		tf := t0 + float64(f)*FrameDt
		times[f] = geom.Interval{Lo: tf, Hi: tf + FrameDt}
	}
	tr, err := trajectory.New(keys)
	if err != nil {
		return nil, err
	}
	return &Query{Traj: tr, Windows: windows, Times: times}, nil
}

func windowAt(x, y, w float64) geom.Box {
	return geom.Box{{Lo: x, Hi: x + w}, {Lo: y, Hi: y + w}}
}

func clamp(v, hi float64) float64 {
	if v < 0 {
		return 0
	}
	if v > hi {
		return hi
	}
	return v
}
