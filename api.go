package dynq

import (
	"context"
	"time"

	"dynq/internal/obs"
	"dynq/internal/stats"
)

// PredictiveCursor is the predictive dynamic query session surface
// (*PredictiveSession implements it).
type PredictiveCursor interface {
	Next(t0, t1 float64) (*Result, error)
	Fetch(t0, t1 float64) ([]Result, error)
	Close()
}

// NonPredictiveCursor is the non-predictive session surface
// (*NonPredictiveSession implements it).
type NonPredictiveCursor interface {
	Snapshot(view Rect, t0, t1 float64) ([]Result, error)
	Reset()
}

// Database is the query and write surface of *DB: everything a server
// needs to answer the protocol's operations without knowing whether one
// tree or many stand behind it. Its writes are ApplyUpdates and
// BulkLoadUpdates; DB.Insert wraps ApplyUpdates.
type Database interface {
	// ApplyUpdates applies a batch of motion updates as one write: the
	// high-rate ingest path. See DB for atomicity and durability
	// semantics.
	ApplyUpdates(ctx context.Context, updates []MotionUpdate, opts WriteOptions) error
	BulkLoadUpdates(updates []MotionUpdate) error
	// Sync persists every page file and checkpoints every armed log.
	Sync() error
	Snapshot(view Rect, t0, t1 float64) ([]Result, error)
	SnapshotCtx(ctx context.Context, view Rect, t0, t1 float64) ([]Result, error)
	KNN(point []float64, t float64, k int) ([]Neighbor, error)
	KNNCtx(ctx context.Context, point []float64, t float64, k int) ([]Neighbor, error)
	Predictive(waypoints []Waypoint, opts PredictiveOptions) (PredictiveCursor, error)
	NonPredictive(opts NonPredictiveOptions) NonPredictiveCursor
	Dims() int
	Len() int
	Stats() (IndexStats, error)
	CostSnapshot() stats.Snapshot
	BufferStats() BufferStats
	// WALTelemetry snapshots the armed logs' instrumentation; ok is false
	// when the database runs without a write-ahead log.
	WALTelemetry(windows []time.Duration) (obs.WALTelemetry, bool)
	// MaintenanceTelemetry snapshots the self-healing loop; ok is false
	// when none is running.
	MaintenanceTelemetry() (obs.MaintenanceTelemetry, bool)
	// RegisterMetrics exposes the per-unit series (shard="0" for a
	// one-unit database). RegisterWALMetrics and RegisterMaintenanceMetrics
	// expose the logs' and the maintenance loop's, reporting whether there
	// was anything to register.
	RegisterMetrics(reg *obs.Registry)
	RegisterWALMetrics(reg *obs.Registry) bool
	RegisterMaintenanceMetrics(reg *obs.Registry) bool
	// Degraded reports whether the database entered read-only mode after
	// persistent storage write failures (mutations return ErrReadOnly).
	Degraded() bool
	// SetReadOnly manually enters or clears read-only mode.
	SetReadOnly(on bool)
	Close() error
}

var _ Database = (*DB)(nil)
