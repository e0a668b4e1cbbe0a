package dynq

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"dynq/internal/core"
	"dynq/internal/geom"
	"dynq/internal/pager"
	"dynq/internal/shard"
	"dynq/internal/stats"
	"dynq/internal/wal"
)

// engine is the one implementation behind DB: N units, each a page store,
// a buffered NSI R-tree, cost counters and a reader-writer lock (a
// shard.Shard), plus — index-aligned with them — an optional write-ahead
// log per unit. Open builds one unit in the single-file layout;
// OpenSharded builds N units, objects placed by a hash of their id.
//
// Concurrency and lock order: the database lock mu, then at most one
// unit lock at a time (multi-unit readers take theirs in ascending
// order inside shard.Engine). Data writes (Insert, ApplyUpdates)
// hold mu SHARED and their owner unit's lock exclusively, so a write
// burst on one unit never blocks a read on another — and with one unit
// the unit lock alone serializes writers against queries. Queries hold
// mu shared plus unit read locks inside their tasks. Sync, BulkLoad,
// Close and the background scrub take mu exclusively: with every writer
// excluded, a log's checkpoint never races an append. Cost and buffer
// accessors are atomic; session types are single-goroutine but run
// alongside queries and writers, synchronizing at index-node granularity
// as the paper's live-update semantics require.
type engine struct {
	mu     sync.RWMutex
	units  *shard.Engine
	dims   int
	health degradeState
	// logs holds the per-unit write-ahead logs; nil when the database
	// runs without them. Immutable after open: either every unit has a
	// log or none does.
	logs []*wal.Log
	// walLabel names the log set in aggregated telemetry.
	walLabel string
	// recovery holds the per-unit open-time verification reports when the
	// database was opened through a recovering open, nil otherwise.
	recovery []*RecoveryReport
	// maint is the self-healing maintenance loop, nil when
	// Options.Maintenance left it disabled.
	maint *maintainer
}

// layout names unit i's page file and log sidecar — what tells the two
// on-disk layouts apart. A nil page keeps the units in memory.
type layout struct {
	page, log func(i int) string
	// logs is what aggregated WAL telemetry calls a set of several logs.
	logs string
}

// singleLayout is Open's: one page file and its sidecar "<path>.wal" (in
// memory when path is empty).
func singleLayout(path string) layout {
	if path == "" {
		return layout{}
	}
	return layout{
		page: func(int) string { return path },
		log:  func(int) string { return path + ".wal" },
	}
}

// shardLayout is OpenSharded's: "<path>.shard<i>" and "<path>.shard<i>.wal"
// (in memory when path is empty).
func shardLayout(path string) layout {
	if path == "" {
		return layout{}
	}
	page := func(i int) string { return fmt.Sprintf("%s.shard%d", path, i) }
	return layout{
		page: page,
		log:  func(i int) string { return page(i) + ".wal" },
		logs: path + ".shard*.wal",
	}
}

// where labels a per-unit error or event; a one-unit database has
// nothing to tell apart.
func where(unit, units int) string {
	if units == 1 {
		return ""
	}
	return fmt.Sprintf(" (shard %d)", unit)
}

// createEngine builds a fresh engine of n empty units. The layout, not
// opts.Path, says where files go: each unit's pages live in
// lay.page(i) (created, truncating) or in memory; logged arms a new log
// per unit at lay.log(i).
func createEngine(opts Options, n int, lay layout, logged bool) (*engine, error) {
	cfg, err := opts.toConfig()
	if err != nil {
		return nil, err
	}
	bufferPages := opts.BufferPages
	if logged && bufferPages == 0 {
		bufferPages = defaultWALBufferPages
	}
	units, err := shard.New(cfg, shard.Options{Shards: n, BufferPages: bufferPages},
		func(i int) (pager.Store, error) {
			if lay.page == nil {
				return pager.NewMemStore(), nil
			}
			return pager.CreateFileStore(lay.page(i))
		})
	if err != nil {
		return nil, err
	}
	e := &engine{units: units, dims: cfg.Dims, walLabel: lay.logs}
	// Commit every file's empty base state BEFORE arming its log: a crash
	// between open and the first Sync must leave an openable (empty) file
	// for replay to rebuild from, never a zero-length unrecoverable one.
	for i := 0; i < n; i++ {
		sh := units.Shard(i)
		if s, ok := sh.Store().(auxStore); ok {
			err := s.SetAux(encodeMeta(sh.Tree.Meta(), 0))
			if err == nil {
				err = sh.Store().Sync()
			}
			if err != nil {
				e.Close()
				return nil, err
			}
		}
	}
	if logged {
		e.logs = make([]*wal.Log, n)
		for i := range e.logs {
			w, err := wal.Create(lay.log(i), wal.Options{GroupCommitWindow: opts.GroupCommitWindow})
			if err != nil {
				e.Close()
				return nil, fmt.Errorf("dynq: create wal%s: %w", where(i, n), err)
			}
			e.logs[i] = w
		}
	}
	e.maint = startMaintainer(e, opts.Maintenance, nil)
	return e, nil
}

// Close stops the maintenance loop and the worker pool and releases
// every unit's log and store. Close does NOT Sync: with logs armed they
// carry the unsynced tail across the restart; without, unsynced writes
// are lost.
func (e *engine) Close() error {
	e.maint.stop()
	var errs []error
	for _, w := range e.logs {
		if w != nil {
			errs = append(errs, w.Close())
		}
	}
	return errors.Join(append(errs, e.units.Close())...)
}

// Dims returns the spatial dimensionality.
func (e *engine) Dims() int { return e.dims }

// Len returns the number of indexed motion segments.
func (e *engine) Len() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.units.Size()
}

// Snapshot answers one spatio-temporal range query: all objects whose
// trajectory passes through view during [t0, t1].
func (e *engine) Snapshot(view Rect, t0, t1 float64) ([]Result, error) {
	return e.SnapshotCtx(context.Background(), view, t0, t1)
}

// SnapshotCtx is Snapshot with cooperative cancellation. The context is
// checked once per index node visited, so a cancelled or expired query
// stops within one page fetch.
func (e *engine) SnapshotCtx(ctx context.Context, view Rect, t0, t1 float64) ([]Result, error) {
	box, err := toBoxDims(view, e.dims)
	if err != nil {
		return nil, err
	}
	tw, err := toWindow(t0, t1)
	if err != nil {
		return nil, err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	ms, err := e.units.Snapshot(ctx, box, tw, 0)
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(ms))
	for i, m := range ms {
		out[i] = Result{
			ID:        ObjectID(m.ID),
			Segment:   adoptSegment(m.Seg),
			Appear:    m.Overlap.Lo,
			Disappear: m.Overlap.Hi,
		}
	}
	return out, nil
}

// KNN returns the k objects nearest to point at time t, nearest first
// (ties by object id).
func (e *engine) KNN(point []float64, t float64, k int) ([]Neighbor, error) {
	return e.KNNCtx(context.Background(), point, t, k)
}

// KNNCtx is KNN with cooperative cancellation.
func (e *engine) KNNCtx(ctx context.Context, point []float64, t float64, k int) ([]Neighbor, error) {
	if hasNaN(t) || hasNaN(point...) {
		return nil, fmt.Errorf("%w in nearest-neighbour query %v at %g", ErrNonFinite, point, t)
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	nbs, err := e.units.KNN(ctx, geom.Point(point), t, k)
	if err != nil {
		return nil, err
	}
	out := make([]Neighbor, len(nbs))
	for i, n := range nbs {
		out[i] = Neighbor{ID: ObjectID(n.ID), Segment: fromSegment(n.Seg), Dist: n.Dist}
	}
	return out, nil
}

// Pair is one proximity-join answer: two objects within the join distance
// of each other at the query time.
type Pair struct {
	A, B     ObjectID
	SegmentA Segment
	SegmentB Segment
	Dist     float64
}

// Within finds every pair of objects whose positions at time t lie within
// delta of each other (a spatial self-join, the paper's future work (ii)).
// Pairs are reported once, with A < B, sorted by (A, B).
func (e *engine) Within(delta, t float64) ([]Pair, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	pairs, err := e.units.SelfJoin(delta, t)
	if err != nil {
		return nil, err
	}
	return fromJoinPairs(pairs), nil
}

func fromJoinPairs(pairs []core.JoinPair) []Pair {
	out := make([]Pair, len(pairs))
	for i, p := range pairs {
		out[i] = Pair{
			A: ObjectID(p.A), B: ObjectID(p.B),
			SegmentA: fromSegment(p.SegA), SegmentB: fromSegment(p.SegB),
			Dist: p.Dist,
		}
	}
	return out
}

// CostSnapshot returns the raw cumulative counter snapshot (all paper
// metrics plus buffer hits, page writes, and pruned nodes). Two
// snapshots bracket an operation: after.Sub(before) is its cost.
func (e *engine) CostSnapshot() stats.Snapshot { return e.units.CostSnapshot() }

// Cost returns the accumulated query cost counters.
func (e *engine) Cost() CostReport { return costReport(e.units.CostSnapshot()) }

// ResetCost zeroes the cost counters.
func (e *engine) ResetCost() { e.units.ResetCost() }

func costReport(s stats.Snapshot) CostReport {
	return CostReport{
		DiskReads:     s.Reads(),
		LeafReads:     s.LeafReads,
		InternalReads: s.InternalReads,
		DistanceComps: s.DistanceComps,
		Results:       s.Results,
	}
}

// BufferStats reports the buffer pools' live accounting, summed across
// units. Safe to call concurrently with queries.
func (e *engine) BufferStats() BufferStats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var out BufferStats
	for i := 0; i < e.units.Shards(); i++ {
		p := e.units.Shard(i).Tree.Pool()
		out.Hits += p.Hits()
		out.Misses += p.Misses()
		out.Evictions += p.Evictions()
		out.WriteBacks += p.WriteBacks()
		out.Len += p.Len()
		out.Capacity += p.Capacity()
	}
	return out
}

// BufferSegments reports per-segment buffer-pool accounting, in segment
// order and summed across units by segment index (every unit's pool has
// the same layout; empty for a bufferless pass-through pool).
func (e *engine) BufferSegments() []BufferSegmentStats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var out []BufferSegmentStats
	for i := 0; i < e.units.Shards(); i++ {
		segs := e.units.Shard(i).Tree.Pool().SegmentStats()
		if out == nil {
			out = make([]BufferSegmentStats, len(segs))
		}
		for j, s := range segs {
			if j >= len(out) {
				break
			}
			out[j].Hits += s.Hits
			out[j].Misses += s.Misses
			out[j].Len += s.Len
			out[j].Capacity += s.Capacity
		}
	}
	return out
}

// Stats walks the index and reports its shape. Across several units,
// node and segment counts sum, height and fanout take the maximum, and
// fill factors are weighted by node count.
func (e *engine) Stats() (IndexStats, error) {
	per, err := e.statsByUnit()
	if err != nil {
		return IndexStats{}, err
	}
	if len(per) == 1 {
		return per[0], nil
	}
	var out IndexStats
	var leafFill, intFill float64
	for _, st := range per {
		out.Segments += st.Segments
		out.LeafNodes += st.LeafNodes
		out.InternalNodes += st.InternalNodes
		if st.Height > out.Height {
			out.Height = st.Height
		}
		if st.LeafFanout > out.LeafFanout {
			out.LeafFanout = st.LeafFanout
		}
		if st.IntFanout > out.IntFanout {
			out.IntFanout = st.IntFanout
		}
		leafFill += st.AvgLeafFill * float64(st.LeafNodes)
		intFill += st.AvgIntFill * float64(st.InternalNodes)
	}
	if out.LeafNodes > 0 {
		out.AvgLeafFill = leafFill / float64(out.LeafNodes)
	}
	if out.InternalNodes > 0 {
		out.AvgIntFill = intFill / float64(out.InternalNodes)
	}
	return out, nil
}

func (e *engine) statsByUnit() ([]IndexStats, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	per, err := e.units.Stats()
	if err != nil {
		return nil, err
	}
	out := make([]IndexStats, len(per))
	for i, st := range per {
		out[i] = IndexStats{
			Height:        st.Height,
			Segments:      st.Segments,
			LeafNodes:     st.LeafNodes,
			InternalNodes: st.InternalNodes,
			LeafFanout:    st.MaxLeafFan,
			IntFanout:     st.MaxIntFan,
			AvgLeafFill:   st.AvgLeafFill,
			AvgIntFill:    st.AvgIntFill,
		}
	}
	return out, nil
}

// Validate checks every unit's structural invariants (tests/tools).
func (e *engine) Validate() error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.units.Validate()
}
