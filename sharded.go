package dynq

import (
	"fmt"
	"os"

	"dynq/internal/obs"
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

// ShardedDB is DB. The name stays only because the nested benchmark
// module declares a field of type *ShardedDB.
type ShardedDB = DB

// OpenSharded creates a NEW database of Shards units. With Options.Path
// set, each shard stores its pages in its own file "<Path>.shard<i>"; the
// files must not already exist — reopening an existing set goes through
// OpenFileRecoverWith with RecoverOptions.Shards, which verifies each
// shard file and replays its log instead of truncating it. Without a path
// all shards live in memory. With ShardOptions.WAL set each shard also
// gets a log sidecar "<Path>.shard<i>.wal" armed from the start.
func OpenSharded(opts ShardOptions) (*DB, error) {
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
			return nil, fmt.Errorf("dynq: sharded database files already exist at %q (found %s): use OpenFileRecoverWith with RecoverOptions.Shards to reopen, or remove them for a fresh database", opts.Path, lay.page(0))
		}
	}
	e, err := createEngine(opts.Options, opts.Shards, lay, opts.WAL)
	if err != nil {
		return nil, err
	}
	return &DB{e}, nil
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

// Shards returns the number of units: 1 for a database Open created.
func (db *DB) Shards() int { return db.units.Shards() }

// Workers returns the worker-pool bound.
func (db *DB) Workers() int { return db.units.Workers() }

// WALArmed reports whether the database carries write-ahead logs.
func (db *DB) WALArmed() bool { return db.logs != nil }

// RegisterMetrics exposes the per-unit gauges and fan-out latency
// histograms through a metric registry.
func (e *engine) RegisterMetrics(reg *obs.Registry) { e.units.Register(reg) }
