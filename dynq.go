// Package dynq is a spatio-temporal database engine for mobile objects
// with dynamic (continuously moving) queries, reproducing "Dynamic
// Queries over Mobile Objects" (Lazaridis, Porkaew, Mehrotra; EDBT 2002).
//
// Mobile objects report piecewise-linear motion updates; each update is a
// motion segment indexed by its space-time bounding box in a disk-based
// R-tree (Native Space Indexing), with exact segment geometry at the leaf
// level. On top of the index, three query strategies answer a moving
// observer's continuous view query:
//
//   - Snapshot: an independent spatio-temporal range query (the paper's
//     baseline when repeated per frame).
//   - Predictive (PDQ): the observer registers a trajectory; results
//     stream out incrementally in order of appearance, each index node is
//     read at most once, and concurrent insertions are merged in live.
//   - NonPredictive (NPDQ): no trajectory is known; each snapshot reuses
//     the previous snapshot's coverage to prune index nodes.
//
// A typical session:
//
//	db, _ := dynq.Open(dynq.Options{})
//	db.Insert(42, dynq.Segment{T0: 0, T1: 1, From: []float64{1, 2}, To: []float64{2, 3}})
//	res, _ := db.Snapshot(dynq.Rect{Min: []float64{0, 0}, Max: []float64{10, 10}}, 0, 1)
//
// See the examples directory for a visualization fly-through (PDQ), a
// vicinity monitor under live updates (NPDQ), and a quickstart.
package dynq

import (
	"errors"
	"fmt"
	"math"

	"dynq/internal/core"
	"dynq/internal/geom"
	"dynq/internal/rtree"
)

// ObjectID identifies a mobile object across all of its motion updates.
type ObjectID = uint64

// Rect is an axis-aligned spatial rectangle; Min and Max must have the
// database's dimensionality.
type Rect struct {
	Min, Max []float64
}

// Segment is one motion update: the object moved linearly from From at
// time T0 to To at time T1.
type Segment struct {
	T0, T1   float64
	From, To []float64
}

// Result is one object delivered by a query: the motion segment that made
// it visible and the [Appear, Disappear] interval during which it stays
// in the (possibly moving) query window.
type Result struct {
	ID        ObjectID
	Segment   Segment
	Appear    float64
	Disappear float64
}

// Neighbor is one k-nearest-neighbor answer.
type Neighbor struct {
	ID      ObjectID
	Segment Segment
	Dist    float64
}

// Options configure a database.
type Options struct {
	// Dims is the spatial dimensionality (default 2).
	Dims int
	// DualTimeAxes stores segment start- and end-time ranges separately
	// in internal index entries. Required for non-predictive dynamic
	// queries to prune effectively; costs internal fanout (113 vs 145).
	DualTimeAxes bool
	// Path, when non-empty, stores index pages in a file; otherwise the
	// index lives in memory. Open CREATES the file, truncating any
	// existing contents — use OpenFileRecoverWith to reattach a previously
	// written index.
	Path string
	// BufferPages enables a server-side LRU page buffer of the given
	// capacity. The paper's experiments run bufferless (0): the client,
	// not the server, caches results. With a log armed, 0 selects a
	// default buffer instead (see defaultWALBufferPages): a logged
	// database must keep post-checkpoint writes in memory so a crash
	// cannot tear the committed base file the log replays onto.
	BufferPages int
	// WALPath, when non-empty, arms a write-ahead log: every
	// ApplyUpdates/Insert appends a checksummed record before
	// touching the index, Sync checkpoints the log, and reopening through
	// OpenFileRecoverWith replays whatever the last page commit missed. Open
	// creates the log fresh (like Path, truncating any existing file).
	// The only accepted value is "<Path>.wal", the sidecar a reopen
	// finds, so a log needs Path. The field stays a string only because
	// the nested benchmark module sets it to that value. OpenSharded
	// rejects it: ShardOptions.WAL arms one log per shard.
	WALPath string
	// Maintenance runs the self-healing maintenance loop: it checkpoints
	// a log whose live bytes reach 8 MiB, scrubs the committed pages of a
	// file at 250 pages a second, and probes a degraded database back to
	// read-write (maintain.go).
	Maintenance bool
}

// DB is a mobile-object database: NSI R-tree units plus the dynamic query
// engines. Open stores one unit in memory or in one page file
// (Options.Path) with an optional write-ahead log "<Path>.wal" beside it;
// OpenSharded partitions objects across several units stored as
// "<Path>.shard<i>" with "<Path>.shard<i>.wal" logs; OpenFileRecoverWith
// reopens either layout. Everything but the file layout is shared — see
// the engine type for the method set and the concurrency model.
type DB struct {
	*engine
}

// defaultWALBufferPages is the page buffer capacity a WAL-armed database
// gets when Options.BufferPages is left 0. Unbuffered writes rewrite
// committed pages in place; after a crash the page file then carries
// epochs newer than its committed header — detected as corruption on
// open, leaving the log nothing intact to replay onto. Buffered, dirty
// pages stay in memory between checkpoints and the committed base
// survives any crash.
const defaultWALBufferPages = 1024

// Open creates a one-unit database. With Options.Path set, a new page
// file is created, TRUNCATING any existing file at that path; use
// OpenFileRecoverWith to reattach an existing one. Options.WALPath must be
// "<Path>.wal": a log anywhere else, or one without a page file to
// replay onto, could never be recovered, and is refused before any file
// is created.
func Open(opts Options) (*DB, error) {
	if opts.WALPath != "" && (opts.Path == "" || opts.WALPath != opts.Path+".wal") {
		return nil, fmt.Errorf("dynq: Options.WALPath %q is not recoverable: a reopen replays only the sidecar \"<Path>.wal\" onto the page file at Path (Path %q)", opts.WALPath, opts.Path)
	}
	e, err := createEngine(opts, 1, singleLayout(opts.Path), opts.WALPath != "")
	if err != nil {
		return nil, err
	}
	return &DB{e}, nil
}

// WALInfo reports each unit log's header state in unit order; ok is false
// when the database runs without logs.
func (db *DB) WALInfo() ([]WALInfo, bool) {
	if db.logs == nil {
		return nil, false
	}
	out := make([]WALInfo, len(db.logs))
	for i, w := range db.logs {
		out[i] = walInfo(w)
	}
	return out, true
}

func (o Options) toConfig() (rtree.Config, error) {
	cfg := rtree.DefaultConfig()
	if o.Dims < 0 {
		return cfg, fmt.Errorf("dynq: Options.Dims must be positive, got %d", o.Dims)
	}
	if o.BufferPages < 0 {
		return cfg, fmt.Errorf("dynq: Options.BufferPages must be >= 0, got %d", o.BufferPages)
	}
	if o.Dims != 0 {
		cfg.Dims = o.Dims
	}
	cfg.DualTime = o.DualTimeAxes
	return cfg, nil
}

// ErrNotFound is returned by ApplyUpdates for a delete of a missing
// segment.
var ErrNotFound = rtree.ErrNotFound

// ErrNonFinite is returned for input the index cannot order: a segment
// with a time or coordinate that is NaN, infinite or beyond float32, the
// stored precision (refused before anything of its batch is logged or
// applied), and a query whose view, time or waypoint contains NaN.
// Infinite query bounds are legal: "unbounded". Tracker.Update returns it
// for a NaN or infinite time, position or velocity; a tracked state is
// float64, so no float32 bound applies there.
var ErrNonFinite = errors.New("dynq: non-finite value")

// CostReport is the cumulative query cost since the last ResetCost, in
// the paper's metrics.
type CostReport struct {
	DiskReads     int64 // index nodes fetched
	LeafReads     int64 // of which leaf-level
	InternalReads int64 // of which internal-level
	DistanceComps int64 // geometric predicate evaluations
	Results       int64 // objects returned
}

// BufferStats describes the server-side page buffer pool.
type BufferStats struct {
	Hits       int64 // page requests served from the pool
	Misses     int64 // page requests that went to the store
	Evictions  int64 // frames displaced by LRU replacement
	WriteBacks int64 // dirty frames written back
	Len        int   // currently buffered frames
	Capacity   int   // frame capacity (0 = bufferless pass-through)
}

// HitRatio returns hits/(hits+misses), or 0 when no requests were made.
func (b BufferStats) HitRatio() float64 {
	total := b.Hits + b.Misses
	if total == 0 {
		return 0
	}
	return float64(b.Hits) / float64(total)
}

// IndexStats describes the physical index shape.
type IndexStats struct {
	Height        int
	Segments      int
	LeafNodes     int
	InternalNodes int
	LeafFanout    int
	IntFanout     int
	AvgLeafFill   float64
	AvgIntFill    float64
}

// toSegmentDims converts a segment as it is; WAL replay uses it directly,
// since what a log holds was acknowledged and is not re-judged.
func toSegmentDims(s Segment, d int) (geom.Segment, error) {
	if len(s.From) != d || len(s.To) != d {
		return geom.Segment{}, fmt.Errorf("dynq: segment endpoints must have %d dims", d)
	}
	if s.T1 < s.T0 {
		return geom.Segment{}, fmt.Errorf("dynq: segment times inverted (%g > %g)", s.T0, s.T1)
	}
	return geom.Segment{
		T:     geom.Interval{Lo: s.T0, Hi: s.T1},
		Start: append(geom.Point(nil), s.From...),
		End:   append(geom.Point(nil), s.To...),
	}, nil
}

// newSegmentDims is toSegmentDims for a segment arriving from a caller:
// NaN slips past every ordering check (T1 < T0 is false for it), would be
// stored, returned by queries and spread into every ancestor box.
func newSegmentDims(s Segment, d int) (geom.Segment, error) {
	if !finite(s.T0, s.T1) || !finite(s.From...) || !finite(s.To...) {
		return geom.Segment{}, fmt.Errorf("%w in segment [%g,%g] %v -> %v", ErrNonFinite, s.T0, s.T1, s.From, s.To)
	}
	return toSegmentDims(s, d)
}

// finite reports whether every value is finite at the index's float32 key
// precision: a float64 beyond it would be stored as an infinity.
func finite(xs ...float64) bool {
	for _, x := range xs {
		if x32 := float64(float32(x)); math.IsNaN(x32) || math.IsInf(x32, 0) {
			return false
		}
	}
	return true
}

// fromSegment copies an index segment the index still owns (a decoded
// node's entry: nearest-neighbour and join answers).
func fromSegment(g geom.Segment) Segment {
	return Segment{
		T0:   g.T.Lo,
		T1:   g.T.Hi,
		From: append([]float64(nil), g.Start...),
		To:   append([]float64(nil), g.End...),
	}
}

// adoptSegment hands a query result's segment to the caller as it is:
// range searches and sessions copy a result's coordinates out of the page
// exactly once, into memory nothing else holds (capacity-clipped per
// point), so there is nothing left to copy them away from.
func adoptSegment(g geom.Segment) Segment {
	return Segment{T0: g.T.Lo, T1: g.T.Hi, From: g.Start, To: g.End}
}

func toBoxDims(r Rect, d int) (geom.Box, error) {
	if len(r.Min) != d || len(r.Max) != d {
		return nil, fmt.Errorf("dynq: rect must have %d dims", d)
	}
	if hasNaN(r.Min...) || hasNaN(r.Max...) {
		return nil, fmt.Errorf("%w in rect %v..%v", ErrNonFinite, r.Min, r.Max)
	}
	b := make(geom.Box, d)
	for i := 0; i < d; i++ {
		b[i] = geom.Interval{Lo: r.Min[i], Hi: r.Max[i]}
	}
	return b, nil
}

// toWindow converts a query's time range.
func toWindow(t0, t1 float64) (geom.Interval, error) {
	if hasNaN(t0, t1) {
		return geom.Interval{}, fmt.Errorf("%w in query time [%g,%g]", ErrNonFinite, t0, t1)
	}
	return geom.Interval{Lo: t0, Hi: t1}, nil
}

// hasNaN is the check on query input, where infinities mean "unbounded".
func hasNaN(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) {
			return true
		}
	}
	return false
}

func fromResult(r core.Result) Result {
	return Result{
		ID:        ObjectID(r.ID),
		Segment:   adoptSegment(r.Seg),
		Appear:    r.Appear,
		Disappear: r.Disappear,
	}
}

func fromResults(rs []core.Result) []Result {
	out := make([]Result, len(rs))
	for i, r := range rs {
		out[i] = fromResult(r)
	}
	return out
}
