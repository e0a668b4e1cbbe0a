package dynq

import (
	"fmt"
	"os"
	"time"

	"dynq/internal/obs"
	"dynq/internal/rtree"
)

// ShardOptions configure a sharded database: the single-tree Options plus
// the partitioning knobs. Per-shard query tasks of ALL queries on the
// database share one worker pool, GOMAXPROCS wide.
type ShardOptions struct {
	Options
	// Shards is the number of hash partitions (>= 1). Objects are placed
	// by a hash of their id, so every motion update touches exactly one
	// shard while every query fans out across all of them.
	Shards int
	// WAL arms a write-ahead log sidecar per shard ("<Path>.shard<i>.wal"):
	// each shard's sub-batch is logged as one crash-atomic record under
	// that shard's write lock, and Sync checkpoints every log against its
	// shard's committed metadata. Requires Options.Path (the logs recover
	// against the shard page files). Options.WALPath is rejected here —
	// a sharded database has one log PER SHARD, not one log total.
	WAL bool
}

// ShardedDB partitions the object population across Shards independent
// NSI R-trees and answers every query by fanning out over a bounded
// worker pool, merging the per-shard answers deterministically. It is
// the same engine as DB with N units instead of one, stored as
// "<Path>.shard<i>" page files with "<Path>.shard<i>.wal" logs; a
// server can swap one for the other without protocol changes. See the
// engine type for the shared method set and the concurrency model.
type ShardedDB struct {
	*engine
}

// OpenSharded creates a NEW sharded database. With Options.Path set,
// each shard stores its pages in its own file "<Path>.shard<i>"; the
// files must not already exist — reopening an existing sharded database
// goes through OpenShardedRecover, which verifies each shard file and
// replays its log instead of truncating it. Without a path all shards
// live in memory. With ShardOptions.WAL set each shard also gets a log
// sidecar "<Path>.shard<i>.wal" armed from the start.
func OpenSharded(opts ShardOptions) (*ShardedDB, error) {
	if opts.Shards < 1 {
		return nil, fmt.Errorf("dynq: ShardOptions.Shards must be >= 1, got %d", opts.Shards)
	}
	if opts.WALPath != "" {
		return nil, fmt.Errorf("dynq: ShardOptions.WALPath is not supported: a sharded database has one log per shard, not one log total; set ShardOptions.WAL to arm \"<Path>.shard<i>.wal\" sidecars")
	}
	if opts.WAL && opts.Path == "" {
		return nil, fmt.Errorf("dynq: ShardOptions.WAL requires Options.Path: per-shard logs recover against the shard page files")
	}
	lay := shardLayout(opts.Path)
	if opts.Path != "" {
		// Fresh-create is explicit: silently truncating a previous run's
		// shard files on reopen destroyed data. Any existing shard file —
		// including one from a run with a different shard count — is a
		// refusal, not a truncation.
		if existing, err := existingShardFiles(lay); err != nil {
			return nil, err
		} else if existing > 0 {
			return nil, fmt.Errorf("dynq: sharded database files already exist at %q (found %s): use OpenShardedRecover to reopen, or remove them for a fresh database", opts.Path, lay.page(0))
		}
	}
	e, err := createEngine(opts.Options, opts.Shards, lay, opts.WAL)
	if err != nil {
		return nil, err
	}
	return &ShardedDB{e}, nil
}

// existingShardFiles counts the shard page files already present under a
// layout, in shard order. The scan stops at the first gap; a gap at the
// front with a higher-numbered file present is reported as an error
// rather than treated as absence, so a partially deleted shard set is
// never mistaken for a fresh directory.
func existingShardFiles(lay layout) (int, error) {
	n := 0
	for ; ; n++ {
		if _, err := os.Stat(lay.page(n)); err != nil {
			if os.IsNotExist(err) {
				break
			}
			return 0, err
		}
	}
	if n == 0 {
		if _, err := os.Stat(lay.page(1)); err == nil {
			return 0, fmt.Errorf("dynq: shard file %q exists but %q is missing: partial shard set", lay.page(1), lay.page(0))
		}
	}
	return n, nil
}

// ShardRecoverOptions tune OpenShardedRecover. Shards is required and
// must match the count the database was created with; everything else
// mirrors RecoverOptions per shard. Armed logs get the WAL buffering
// floor of page buffer per shard, as a fresh logged database does.
type ShardRecoverOptions struct {
	// Shards is the number of partitions the database was created with.
	// A mismatch against the on-disk shard file set is an error: objects
	// are placed by hash-mod-shards, so opening under a different count
	// would silently misroute every lookup.
	Shards int
	// WAL force-arms a log sidecar per shard (created when missing,
	// replayed when not). Without it, logs are auto-detected: if ANY
	// "<path>.shard<i>.wal" exists, every shard is armed — a database is
	// logged as a whole or not at all.
	WAL bool
	// GroupCommitWindow is each armed log's coalescing window (see
	// Options.GroupCommitWindow).
	GroupCommitWindow time.Duration
	// Maintenance configures the self-healing maintenance loop (see
	// Options.Maintenance).
	Maintenance MaintenanceOptions
}

// OpenShardedRecover reopens a sharded database created by OpenSharded
// with Options.Path, verifying each shard's page file through the same
// recovery machinery as OpenFileRecover and replaying each shard's log
// sidecar independently. The returned reports describe the per-shard
// verification in shard order (MergeRecoveryReports folds them into one
// for single-report consumers).
//
// A path with no shard files fails with an error satisfying
// errors.Is(err, os.ErrNotExist): creating a database takes the tree
// shape only OpenSharded's options carry.
func OpenShardedRecover(path string, opts ShardRecoverOptions) (*ShardedDB, []*RecoveryReport, error) {
	if path == "" {
		return nil, nil, fmt.Errorf("dynq: OpenShardedRecover requires a path")
	}
	if opts.Shards < 1 {
		return nil, nil, fmt.Errorf("dynq: ShardRecoverOptions.Shards must be >= 1, got %d", opts.Shards)
	}
	lay := shardLayout(path)
	existing, err := existingShardFiles(lay)
	if err != nil {
		return nil, nil, err
	}
	if existing == 0 {
		return nil, nil, fmt.Errorf("dynq: no sharded database at %q (%s): %w", path, lay.page(0), os.ErrNotExist)
	}
	if existing != opts.Shards {
		return nil, nil, fmt.Errorf("dynq: database at %q was created with %d shards, opened with %d: the shard count cannot change (objects are placed by hash mod shards, so a different count would misroute them); reopen with -shards %d or rebuild",
			path, existing, opts.Shards, existing)
	}
	e, err := recoverEngine(recoverSpec{
		lay:      lay,
		units:    opts.Shards,
		forceWAL: opts.WAL,
		window:   opts.GroupCommitWindow,
		maint:    opts.Maintenance,
	})
	if err != nil {
		return nil, nil, err
	}
	return &ShardedDB{e}, e.recovery, nil
}

// MergeRecoveryReports folds per-shard reports into one database-level
// report for consumers built around a single report (dqserver's
// dynq_recovery_* gauges): counts sum, repair flags OR, and HeaderSeq is
// the maximum. A nil or empty slice yields nil.
func MergeRecoveryReports(reps []*RecoveryReport) *RecoveryReport {
	var out *RecoveryReport
	for _, r := range reps {
		if r == nil {
			continue
		}
		if out == nil {
			cp := *r
			out = &cp
			continue
		}
		if r.HeaderSeq > out.HeaderSeq {
			out.HeaderSeq = r.HeaderSeq
		}
		out.TornHeaderRepaired = out.TornHeaderRepaired || r.TornHeaderRepaired
		out.PagesChecked += r.PagesChecked
		out.LeafPages += r.LeafPages
		out.InternalPages += r.InternalPages
		out.Segments += r.Segments
		out.FreePages += r.FreePages
		out.FreeListRebuilt = out.FreeListRebuilt || r.FreeListRebuilt
		out.OrphanPages += r.OrphanPages
		out.WALArmed = out.WALArmed || r.WALArmed
		out.WALCheckpointLSN += r.WALCheckpointLSN
		out.WALRecordsReplayed += r.WALRecordsReplayed
		out.WALUpdatesReplayed += r.WALUpdatesReplayed
		out.WALTornTail = out.WALTornTail || r.WALTornTail
	}
	return out
}

// Shards returns the number of partitions.
func (db *ShardedDB) Shards() int { return db.units.Shards() }

// Workers returns the worker-pool bound.
func (db *ShardedDB) Workers() int { return db.units.Workers() }

// ShardFor returns the partition owning an object's motion segments.
func (db *ShardedDB) ShardFor(id ObjectID) int { return db.units.ShardFor(rtree.ObjectID(id)) }

// LastRecovery returns the per-shard reports from the OpenShardedRecover
// that produced this database, nil for a fresh or in-memory database.
func (db *ShardedDB) LastRecovery() []*RecoveryReport { return db.recovery }

// WALArmed reports whether the database carries per-shard logs.
func (db *ShardedDB) WALArmed() bool { return db.logs != nil }

// WALInfoByShard reports each shard log's header state in shard order;
// ok is false when the database runs without logs.
func (db *ShardedDB) WALInfoByShard() ([]WALInfo, bool) {
	if db.logs == nil {
		return nil, false
	}
	out := make([]WALInfo, len(db.logs))
	for i, w := range db.logs {
		out[i] = walInfo(w)
	}
	return out, true
}

// JoinWith finds every pair (a ∈ db, b ∈ other) within delta of each
// other at time t. Both databases must have the same dimensionality.
// Only the receiver is read-locked; concurrent writes to other
// synchronize at its index level, so they may land mid-join.
func (db *ShardedDB) JoinWith(other *ShardedDB, delta, t float64) ([]Pair, error) {
	return db.joinWith(other.engine, delta, t)
}

// StatsByShard walks every shard and reports the per-shard index shapes,
// in shard order.
func (db *ShardedDB) StatsByShard() ([]IndexStats, error) { return db.statsByUnit() }

// ShardCost returns shard i's own accumulated cost counters.
func (db *ShardedDB) ShardCost(i int) CostReport { return costReport(db.units.ShardCost(i)) }

// ShardBufferStats reports shard i's own buffer-pool accounting.
func (db *ShardedDB) ShardBufferStats(i int) BufferStats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.unitBufferStats(i)
}

// RegisterMetrics exposes the per-shard gauges and fan-out latency
// histograms through a metric registry.
func (db *ShardedDB) RegisterMetrics(reg *obs.Registry) { db.units.Register(reg) }
