// Package shard implements a hash-partitioned parallel query engine over
// N independent NSI R-trees. Motion segments are partitioned by ObjectID
// (a splitmix64 hash, so consecutive ids spread evenly), each shard owns
// its own pager store, buffer pool and cost counters, and queries fan out
// across a bounded worker pool shared by every operation on the engine.
// One shard is the degenerate case every single-file database runs on:
// no pool, every task on the caller's goroutine, every merge the
// identity.
//
// Writes (ApplyBatch, and the database's write path through FanOut and
// Apply) touch only the shards owning the batch's objects. Set queries
// (Snapshot, KNN, distance joins) run per shard in parallel and merge
// deterministically. Dynamic-query sessions (PDQ, NPDQ, adaptive) drive
// one per-shard cursor each and merge their streams through an
// appearance-time min-heap, preserving the paper's "each object reported
// once, in order of appearance" contract: an object lives in exactly one
// shard, so cross-shard duplicates are impossible, and a k-way merge of
// per-shard appearance-ordered streams is appearance-ordered.
//
// The partitioning is the classic scale-out step of distributed
// moving-object systems (Zhu & Yu's distributed continuous range queries;
// Keller et al.'s scalable dynamic spatial database): object-hash
// placement keeps every update a single-shard operation, at the cost of
// every query visiting all shards — the right trade for the paper's
// workload, where updates vastly outnumber query sessions.
package shard

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"dynq/internal/geom"
	"dynq/internal/obs"
	"dynq/internal/pager"
	"dynq/internal/rtree"
	"dynq/internal/stats"
)

// Options configure an engine. Per-shard tasks of ALL queries on the
// engine share one worker pool, GOMAXPROCS wide.
type Options struct {
	// Shards is the number of partitions (>= 1).
	Shards int
	// BufferPages gives every shard its own LRU page buffer of this
	// capacity (0 = bufferless pass-through, the paper's setting).
	BufferPages int
}

func (o Options) validate() error {
	if o.Shards < 1 {
		return fmt.Errorf("shard: Shards must be >= 1, got %d", o.Shards)
	}
	if o.BufferPages < 0 {
		return fmt.Errorf("shard: BufferPages must be >= 0, got %d", o.BufferPages)
	}
	return nil
}

// Shard is one partition: an R-tree over its own store, with its own cost
// counters so per-shard load is observable. The tree's lock is the
// partition's lock: a write portion holds it exclusively for one
// rtree.Batch, from Begin to End, and every read holds it shared for the
// span it reads. A join reads two trees and takes their locks in address
// order (core.DistanceJoin), so no lock cycle forms.
type Shard struct {
	Tree     *rtree.Tree
	Counters stats.Counters
	store    pager.Store
}

// Engine is the sharded query engine. All methods are safe for concurrent
// use except where a session type documents otherwise; Close must not
// race with in-flight queries.
type Engine struct {
	cfg    rtree.Config
	opts   Options
	shards []*Shard

	// tasks feeds the bounded worker pool; nil on a one-shard or
	// one-worker engine, whose tasks all run on the calling goroutine.
	tasks   chan func()
	workers sync.WaitGroup
	nwork   int // pool width, GOMAXPROCS at creation

	// latency records per-shard fan-out task wall time (one observation
	// per shard per fanned-out query), for the per-shard histograms the
	// server registry exposes.
	latency []*obs.Histogram
}

// New builds an engine of opts.Shards empty partitions. storeFor supplies
// the page store of shard i (memory or file-backed); on error, stores
// already created are closed.
func New(cfg rtree.Config, opts Options, storeFor func(i int) (pager.Store, error)) (*Engine, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	trees := make([]*rtree.Tree, opts.Shards)
	stores := make([]pager.Store, 0, opts.Shards)
	fail := func(err error) (*Engine, error) {
		for _, s := range stores {
			s.Close()
		}
		return nil, err
	}
	for i := range trees {
		store, err := storeFor(i)
		if err != nil {
			return fail(err)
		}
		stores = append(stores, store)
		if trees[i], err = rtree.NewBuffered(cfg, store, opts.BufferPages); err != nil {
			return fail(err)
		}
	}
	return NewFromShards(cfg, opts, trees, stores)
}

// NewFromShards builds an engine over pre-built trees and their stores —
// the recovery path, where each shard's tree was restored from its own
// verified file rather than created empty. trees[i] must already read
// through stores[i]; opts.Shards must match len(trees). The engine wires
// each shard's counters into its tree.
func NewFromShards(cfg rtree.Config, opts Options, trees []*rtree.Tree, stores []pager.Store) (*Engine, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if len(trees) != opts.Shards || len(stores) != opts.Shards {
		return nil, fmt.Errorf("shard: NewFromShards got %d trees and %d stores for %d shards",
			len(trees), len(stores), opts.Shards)
	}
	e := &Engine{
		cfg:     cfg,
		opts:    opts,
		shards:  make([]*Shard, opts.Shards),
		latency: make([]*obs.Histogram, opts.Shards),
		nwork:   runtime.GOMAXPROCS(0),
	}
	for i := range e.shards {
		sh := &Shard{Tree: trees[i], store: stores[i]}
		trees[i].SetCounters(&sh.Counters)
		e.shards[i] = sh
		e.latency[i] = obs.NewHistogram(nil)
	}
	// One shard never has two tasks to overlap, and one worker never
	// overlaps two: run executes the tasks on the caller's goroutine, so a
	// pool would only add a hand-off and a wait per task.
	if opts.Shards > 1 && e.nwork > 1 {
		e.tasks = make(chan func())
		e.workers.Add(e.nwork)
		for w := 0; w < e.nwork; w++ {
			go func() {
				defer e.workers.Done()
				for fn := range e.tasks {
					fn()
				}
			}()
		}
	}
	return e, nil
}

// Shards returns the number of partitions.
func (e *Engine) Shards() int { return len(e.shards) }

// Workers returns the worker-pool bound.
func (e *Engine) Workers() int { return e.nwork }

// Shard exposes partition i (tests, metrics).
func (e *Engine) Shard(i int) *Shard { return e.shards[i] }

// Store exposes the shard's page store — the recovery and checkpoint
// paths need it to stage metadata and commit pages per shard.
func (sh *Shard) Store() pager.Store { return sh.store }

// mix is the splitmix64 finalizer: object ids are often sequential, and
// a plain modulo would put entire id ranges on one shard.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Place returns the partition owning an object under a given shard
// count. Placement is a pure function of (id, shards) — it must be, so
// a reopened database routes every object exactly as the run that wrote
// it, and a WAL replay can detect records logged under a different
// shard count.
func Place(id rtree.ObjectID, shards int) int {
	return int(mix(uint64(id)) % uint64(shards))
}

// Update is one element of an ApplyBatch write batch: an insertion, or
// (with Delete set) the removal of the object's segment starting at T0.
type Update struct {
	ID     rtree.ObjectID
	Seg    geom.Segment
	T0     float64
	Delete bool
}

// ApplyBatch partitions a write batch by owner shard and applies every
// per-shard portion in parallel, each with Apply in one rtree.Batch:
// relative order within a shard is preserved (an object's
// delete-then-reinsert works, because both route to the same shard),
// readers of a shard never observe a half-applied portion, and an error
// rolls the portion back whole. Cross-shard visibility is not atomic —
// shards finish independently. A delete of a missing segment fails its
// shard's portion with rtree.ErrNotFound; the first error in shard order
// is returned, and other shards may have applied their portions fully.
func (e *Engine) ApplyBatch(updates []Update) error {
	parts := make([][]Update, len(e.shards))
	touched := make([]bool, len(e.shards))
	for _, u := range updates {
		i := Place(u.ID, len(e.shards))
		parts[i] = append(parts[i], u)
		touched[i] = true
	}
	return e.FanOut(touched, func(i int, sh *Shard) error {
		b := sh.Tree.Begin()
		return b.End(Apply(b, parts[i], false))
	})
}

// Apply applies one shard's portion of a write batch to its open batch,
// in order — the one write loop, behind ApplyBatch, the database's live
// writes and its log replay. A delete followed at once by a reinsertion of
// the same object at the same float32 start time is a correction, one
// Batch.Correct: it looks the old segment up where the new one starts and
// rewrites the leaf entry in place when the new segment fits. The choice
// depends on the tree and the updates alone, so a replayed portion edits
// the pages the live one did. In replay mode a delete of a missing segment
// is skipped rather than failed, and a correction's reinsertion still
// made: the segment may have died to a later record the first time
// around, then been checkpointed. The caller ends the batch.
func Apply(b rtree.Batch, part []Update, replay bool) error {
	for k := 0; k < len(part); k++ {
		u := part[k]
		var err error
		switch {
		case !u.Delete:
			err = b.Insert(u.ID, u.Seg)
		case k+1 < len(part) && !part[k+1].Delete && part[k+1].ID == u.ID &&
			float32(part[k+1].Seg.T.Lo) == float32(u.T0):
			k++
			if err = b.Correct(u.ID, u.T0, part[k].Seg); err == rtree.ErrNotFound && replay {
				err = b.Insert(u.ID, part[k].Seg)
			}
		default:
			if err = b.Delete(u.ID, u.T0); err == rtree.ErrNotFound && replay {
				err = nil
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Size returns the total number of indexed segments.
func (e *Engine) Size() int {
	n := 0
	for _, sh := range e.shards {
		n += sh.Tree.Size()
	}
	return n
}

// BulkLoad partitions the entry set by owner shard and bulk-loads every
// shard in parallel at the configured fill factor, replacing current
// contents. Every shard must be empty.
func (e *Engine) BulkLoad(entries []rtree.LeafEntry) error {
	for _, sh := range e.shards {
		if sh.Tree.Size() != 0 {
			return fmt.Errorf("shard: BulkLoad requires empty shards")
		}
	}
	parts := [][]rtree.LeafEntry{entries} // one shard owns everything: no copy
	if len(e.shards) > 1 {
		parts = make([][]rtree.LeafEntry, len(e.shards))
		for _, en := range entries {
			i := Place(en.ID, len(e.shards))
			parts[i] = append(parts[i], en)
		}
	}
	return e.FanOut(nil, func(i int, sh *Shard) error {
		tree, err := rtree.BulkLoad(e.cfg, sh.store, parts[i])
		if err != nil {
			return err
		}
		if e.opts.BufferPages > 0 {
			if err := tree.UseBuffer(e.opts.BufferPages); err != nil {
				return err
			}
		}
		tree.SetCounters(&sh.Counters)
		sh.Tree = tree
		return nil
	})
}

// CostSnapshot returns the counters summed across shards.
func (e *Engine) CostSnapshot() stats.Snapshot {
	var sum stats.Snapshot
	for _, sh := range e.shards {
		sum = sum.Add(sh.Counters.Snapshot())
	}
	return sum
}

// ResetCost zeroes every shard's counters.
func (e *Engine) ResetCost() {
	for _, sh := range e.shards {
		sh.Counters.Reset()
	}
}

// Stats checks every shard (rtree.Walk) and returns the per-shard index
// shapes, in shard order.
func (e *Engine) Stats() ([]rtree.TreeStats, error) {
	out := make([]rtree.TreeStats, len(e.shards))
	err := e.FanOut(nil, func(i int, sh *Shard) error {
		st, err := sh.Tree.Stats()
		out[i] = st
		return err
	})
	return out, err
}

// Validate checks every shard's structural invariants (rtree.Walk).
func (e *Engine) Validate() error {
	return e.FanOut(nil, func(_ int, sh *Shard) error {
		return sh.Tree.Validate()
	})
}

// Close shuts the worker pool down and closes every shard's store.
func (e *Engine) Close() error {
	e.Shutdown()
	return e.closeStores()
}

// Shutdown stops the worker pool without touching the stores — the
// crash-simulation path, where the caller has already abandoned the
// stores mid-write and a clean Close would mask the simulated failure.
// The engine must not be used afterwards.
func (e *Engine) Shutdown() {
	if e.tasks != nil {
		close(e.tasks)
		e.workers.Wait()
	}
}

func (e *Engine) closeStores() error {
	var errs []error
	for _, sh := range e.shards {
		if sh != nil {
			errs = append(errs, sh.store.Close())
		}
	}
	return errors.Join(errs...)
}

// run executes the given tasks on the bounded worker pool and blocks
// until all finish, returning the first error in task order. It is the
// fan-out primitive behind every parallel operation. A single task runs
// on the calling goroutine: handing it to a worker and waiting buys no
// overlap and costs two goroutine switches, which is most of a 15µs
// predictive frame. An engine with no pool — one shard, or one worker
// (GOMAXPROCS 1), where a lone worker would run the tasks one after
// another anyway — runs every task on the calling goroutine, in order,
// and stops at the first error.
func (e *Engine) run(fns []func() error) error {
	if len(fns) == 1 || e.tasks == nil {
		for _, fn := range fns {
			if err := fn(); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(fns))
	var wg sync.WaitGroup
	wg.Add(len(fns))
	for i, fn := range fns {
		e.tasks <- func() {
			defer wg.Done()
			errs[i] = fn()
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// FanOut runs fn once per shard where touched[i] is true — on every
// shard when touched is nil — on the worker pool, timing each task into
// the shard's latency histogram. It is the fan-out behind every parallel
// operation and every batch write: a writer partitions its batch itself
// and, when logging, appends each portion to its shard's log inside the
// rtree.Batch that applies it, so the log's record order is the order the
// shard's writes became visible. The first error in shard order is
// returned; other shards may have completed.
func (e *Engine) FanOut(touched []bool, fn func(i int, sh *Shard) error) error {
	fns := make([]func() error, 0, len(e.shards))
	for i, sh := range e.shards {
		if touched != nil && !touched[i] {
			continue
		}
		fns = append(fns, func() error {
			start := time.Now()
			defer func() { e.latency[i].ObserveDuration(time.Since(start)) }()
			return fn(i, sh)
		})
	}
	return e.run(fns)
}

// fanOutTraced is FanOut plus trace recording. When the context carries
// both a trace context and a tracer (the netq server arms both per
// request via obs.ContextWithTrace/ContextWithTracer), every shard task
// records one child span — parented to the caller's span, tagged with
// the shard index — holding the shard's per-stage (pager/rtree/engine)
// cost deltas measured around the task. Shard counters are shared by all
// queries on the shard, so under concurrency a span's delta may include
// work charged by overlapping operations (same caveat as the server-wide
// op spans). Without a trace in the context, or with a single shard —
// whose one child would only repeat the caller's own span — it degrades
// to plain FanOut.
func (e *Engine) fanOutTraced(ctx context.Context, op, engine string, fn func(i int, sh *Shard) error) error {
	tc, okTrace := obs.TraceFromContext(ctx)
	tracer, okTracer := obs.TracerFromContext(ctx)
	if !okTrace || !okTracer || len(e.shards) == 1 {
		return e.FanOut(nil, fn)
	}
	fns := make([]func() error, len(e.shards))
	for i := range e.shards {
		i := i
		fns[i] = func() error {
			sh := e.shards[i]
			start := time.Now()
			before := sh.Counters.Snapshot()
			err := fn(i, sh)
			wall := time.Since(start)
			e.latency[i].ObserveDuration(wall)
			delta := sh.Counters.Snapshot().Sub(before)
			span := obs.Span{
				Op:      op,
				Shard:   i,
				Start:   start,
				WallNS:  wall.Nanoseconds(),
				Results: int(delta.Results),
				Stages:  obs.Stages(delta, engine),
			}
			if err != nil {
				span.Err = err.Error()
			}
			tc.Child().Annotate(&span)
			tracer.Record(span)
			return err
		}
	}
	return e.run(fns)
}
