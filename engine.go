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
// a buffered NSI R-tree and cost counters (a shard.Shard), plus —
// index-aligned with them — an optional write-ahead log per unit. Open
// builds one unit in the single-file layout; OpenSharded builds N units,
// objects placed by a hash of their id.
//
// Concurrency and lock order: the database lock mu, then tree locks. A
// unit's tree lock is its only lock. Data writes (Insert, ApplyUpdates)
// hold mu SHARED and hold their owner unit's tree exclusively for one
// rtree.Batch, so a write burst on one unit never blocks a read on
// another. Queries hold mu shared plus, inside each unit's task, that
// tree's lock shared; a join takes two tree locks, in address order.
// Sync, BulkLoad, Close and the background scrub take mu exclusively:
// with every writer excluded, a log's checkpoint never races an append
// and BulkLoad may swap the trees. Cost and buffer accessors are atomic;
// session types are single-goroutine but run alongside queries and
// writers, synchronizing at index-node granularity as the paper's
// live-update semantics require.
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
	// Options.Maintenance is off.
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
			w, err := wal.Create(lay.log(i), wal.Options{})
			if err != nil {
				e.Close()
				return nil, fmt.Errorf("dynq: create wal%s: %w", where(i, n), err)
			}
			e.logs[i] = w
		}
	}
	e.maint = startMaintainer(e, maintFor(opts.Maintenance), nil)
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

// Stats checks the index (rtree.Walk) and reports its shape. Across
// several units, node and segment counts sum, height and fanout take the
// maximum, and fill factors are weighted by node count.
func (e *engine) Stats() (IndexStats, error) {
	e.mu.RLock()
	per, err := e.units.Stats()
	e.mu.RUnlock()
	if err != nil {
		return IndexStats{}, err
	}
	var out IndexStats
	for _, st := range per {
		out.Segments += st.Segments
		out.LeafNodes += st.LeafNodes
		out.InternalNodes += st.InternalNodes
		out.Height = max(out.Height, st.Height)
		out.LeafFanout = max(out.LeafFanout, st.MaxLeafFan)
		out.IntFanout = max(out.IntFanout, st.MaxIntFan)
		out.AvgLeafFill += st.AvgLeafFill * float64(st.LeafNodes)
		out.AvgIntFill += st.AvgIntFill * float64(st.InternalNodes)
	}
	if out.LeafNodes > 0 {
		out.AvgLeafFill /= float64(out.LeafNodes)
	}
	if out.InternalNodes > 0 {
		out.AvgIntFill /= float64(out.InternalNodes)
	}
	return out, nil
}

// Validate checks every unit's structural invariants (tests/tools): the
// walk Stats runs, without the shape.
func (e *engine) Validate() error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.units.Validate()
}
