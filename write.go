package dynq

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"dynq/internal/rtree"
	"dynq/internal/shard"
)

// MotionUpdate is one element of a write batch: an insertion of a motion
// segment, or — with Delete set — the removal of the object's segment
// that starts at Segment.T0 (the other segment fields are ignored for
// deletions). A dead-reckoning re-announcement is its canonical source:
// delete the old prediction, insert the corrected one, in one batch. Put
// the insertion right after its delete, with the same object and T0: the
// pair is then one correction, which looks for the old segment first where
// the new one starts and, when the new segment fits in the old one's leaf,
// rewrites the entry where it lies.
type MotionUpdate struct {
	ID      ObjectID
	Segment Segment
	Delete  bool
}

// Durability says how hard ApplyUpdates must try before returning. The
// explicit levels are a contract: requesting DurabilityGroupCommit or
// DurabilitySync against a backend with no write-ahead log armed fails
// with ErrNoWAL rather than acknowledging an in-memory write as durable.
// Only the zero value adapts to whether a log is present.
type Durability int

const (
	// DurabilityDefault (the zero value) is the adaptive default: with a
	// WAL armed it behaves exactly like DurabilityGroupCommit; without
	// one the update is applied in memory and a later Sync persists it —
	// the pre-WAL contract. It is the only level that never fails for
	// lack of a log.
	DurabilityDefault Durability = iota
	// DurabilityGroupCommit returns once the batch's WAL record is
	// fsynced, coalescing with concurrent writers: the first waiter
	// leads a commit round and, if another writer is already waiting or
	// has appended behind it, holds the round open for the group-commit
	// window so that one fsync covers them all; a writer with the log to
	// itself fsyncs at once. Throughput of batched fsyncs under
	// concurrency, latency of at most one window plus one fsync (one
	// fsync for a lone writer). ErrNoWAL without a log.
	DurabilityGroupCommit
	// DurabilitySync returns once the batch's WAL record is fsynced,
	// without waiting the coalescing window (it still shares an fsync
	// with any round already forming). Lowest latency per write.
	// ErrNoWAL without a log.
	DurabilitySync
	// DurabilityAsync returns as soon as the batch is applied in memory
	// and appended to the WAL's OS buffer; a crash may lose it. A later
	// synchronous write or Sync makes it durable retroactively (the log
	// is sequential: fsyncing record n covers every record before it).
	// Valid with or without a log.
	DurabilityAsync
)

// ErrNoWAL reports a write that requested explicit durability
// (DurabilityGroupCommit or DurabilitySync) against a database with no
// write-ahead log armed. The write is NOT applied: acknowledging it
// would silently downgrade a durability guarantee the caller asked for.
// Use DurabilityDefault (or DurabilityAsync) for backends that may run
// without a log, or arm one (Options.WALPath, ShardOptions.WAL).
var ErrNoWAL = errors.New("dynq: durability requested but no write-ahead log is armed")

// checkDurability enforces the Durability contract for a backend whose
// log may be absent: explicit sync levels require a WAL, and unknown
// levels are rejected before anything is applied.
func checkDurability(d Durability, walArmed bool) error {
	switch d {
	case DurabilityDefault, DurabilityAsync:
		return nil
	case DurabilityGroupCommit, DurabilitySync:
		if !walArmed {
			return ErrNoWAL
		}
		return nil
	default:
		return fmt.Errorf("dynq: unknown durability level %d", d)
	}
}

// WriteOptions carries per-write knobs for ApplyUpdates. The zero value
// is default durability: group commit when a WAL is armed.
type WriteOptions struct {
	// Durability selects how durable the write must be before the call
	// returns; see the Durability constants. Explicit sync levels fail
	// with ErrNoWAL when no log is armed.
	Durability Durability
}

// Insert records one motion update for an object. Coordinates are stored
// at float32 precision (the on-disk key format). It is a thin wrapper
// over ApplyUpdates with default durability; batch updates through
// ApplyUpdates when ingesting at rate.
func (e *engine) Insert(id ObjectID, seg Segment) error {
	return e.ApplyUpdates(context.Background(), []MotionUpdate{{ID: id, Segment: seg}}, WriteOptions{})
}

// ApplyUpdates applies a batch of motion updates as one write — the
// high-rate ingest path for dead-reckoning bursts. The batch is
// partitioned by owner unit and each unit's portion applies under that
// unit's tree lock alone, in slice order within the unit (a delete-then-
// reinsert of the same object works within one batch) — so concurrent
// batches touching disjoint units proceed in parallel and readers of
// untouched units are never blocked. Cross-unit order within one batch
// is unspecified; per-object order is preserved (an object lives on
// exactly one unit).
//
// Each unit's portion is all or nothing. A malformed segment fails the
// whole batch up front. Otherwise the portion is applied in one batch on
// the unit's tree (rtree.Batch), which keeps an undo log of every byte it
// overwrites; a delete with no matching segment (in the index or earlier
// in the portion) fails the portion with ErrNotFound, and it and any
// storage error roll the portion back, leaving the unit as it was. A
// delete is found by object and T0 alone; its own segment fields are
// ignored. When the next update reinserts the same object at the same T0
// (a correction), the pair applies as one: the one descent that finds the
// old segment looks first where the new one starts, which on a tall or
// paged index reads fewer nodes, and a new segment that lies inside the
// box its leaf's parent stores replaces the old one in its leaf slot,
// writing one path of pages instead of a delete's and an insert's.
// Listeners see what a delete and an insert that split nothing would show
// them, once the portion commits.
//
// With logs armed each unit's portion is appended to that unit's log as
// ONE record after it is applied and before it commits, under the same
// lock acquisition — apply, log, commit — then the call waits according
// to opts.Durability, the touched logs fsyncing in parallel. A failed
// append rolls the portion back too, so nothing of a portion the caller
// saw fail is logged, and nothing survives a crash. Each logged portion is
// crash-atomic: recovery replays the whole record or none of it.
// Atomicity ACROSS units is not promised, across crashes or live: units
// log and apply independently, and an error on one does not undo
// portions already applied — and logged — on others. A storage error
// counts toward degraded read-only mode, so the database does not keep
// accepting writes onto a failing store; so does a rollback that itself
// fails, which is returned with the error that caused it. The one error
// that leaves a portion standing is a page that fails to free as it
// commits: the portion is applied and logged, the page leaks, and the
// error is returned.
//
// Without logs, explicit DurabilityGroupCommit/DurabilitySync requests
// fail with ErrNoWAL; DurabilityDefault and DurabilityAsync apply in
// memory.
//
// When ctx carries a tracer (netq threads one per request), the batch is
// recorded as a traced span with validate / wal-append / tree-apply /
// fsync-wait stage deltas, continuing any trace context in ctx.
func (e *engine) ApplyUpdates(ctx context.Context, updates []MotionUpdate, opts WriteOptions) error {
	return e.applyUpdates(ctx, updates, opts, true)
}

// applyUpdates is the one write path. gated controls the degraded
// read-only check: public writes pass true; the maintenance probe passes
// false, because its whole purpose is to attempt a write while the
// database is degraded.
func (e *engine) applyUpdates(ctx context.Context, updates []MotionUpdate, opts WriteOptions, gated bool) (err error) {
	if len(updates) == 0 {
		return nil
	}
	ws := beginWriteSpan(ctx)
	defer func() { ws.finish(len(updates), err) }()
	// e.logs is immutable after open, so the durability contract can be
	// checked before any work: an explicit sync level with no log armed
	// must fail rather than ack an in-memory write as durable.
	if err := checkDurability(opts.Durability, e.logs != nil); err != nil {
		return err
	}
	// Convert every update before taking a lock, so a bad batch costs
	// nothing and a logged batch never fails conversion on replay.
	mark := ws.now()
	n := e.units.Shards()
	ups := make([]shard.Update, len(updates))
	for i, u := range updates {
		ups[i] = shard.Update{ID: rtree.ObjectID(u.ID), T0: u.Segment.T0, Delete: u.Delete}
		if !u.Delete {
			if ups[i].Seg, err = newSegmentDims(u.Segment, e.dims); err != nil {
				return err
			}
		}
	}
	// One unit owns the whole batch as it stands (touched nil: every
	// unit); several get a portion each, in slice order, kept both as
	// applied and as logged.
	parts, logged, touched := [][]shard.Update{ups}, [][]MotionUpdate{updates}, []bool(nil)
	if n > 1 {
		parts, logged, touched = make([][]shard.Update, n), make([][]MotionUpdate, n), make([]bool, n)
		for i, u := range ups {
			s := shard.Place(u.ID, n)
			parts[s] = append(parts[s], u)
			logged[s] = append(logged[s], updates[i])
			touched[s] = true
		}
	}
	ws.stage(stageValidate, ws.since(mark))
	if err := ctx.Err(); err != nil {
		return err
	}
	e.mu.RLock()
	if gated {
		err = e.health.gate()
	}
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		e.mu.RUnlock()
		return err
	}
	// lsns[i] records unit i's appended record (0 = unit untouched, its
	// portion refused, or no logs); the durability wait covers these.
	lsns := make([]uint64, n)
	var walNS atomic.Int64
	mark = ws.now()
	err = e.units.FanOut(touched, func(i int, sh *shard.Shard) error {
		// Apply, log, commit: the portion is applied in one batch, then
		// logged, and only then made final. Whatever fails first — a
		// missing segment, a storage error, the append — rolls the portion
		// back before anything of it is logged, so a portion the caller saw
		// fail never replays after a crash.
		b := sh.Tree.Begin()
		err := shard.Apply(b, parts[i], false)
		if err == nil && e.logs != nil {
			t := ws.now()
			lsn, werr := e.logs[i].Append(encodeUpdates(e.dims, logged[i]))
			walNS.Add(int64(ws.since(t)))
			if werr != nil {
				err = fmt.Errorf("dynq: wal append%s: %w", where(i, n), werr)
			} else {
				lsns[i] = lsn
			}
		}
		return b.End(err)
	})
	e.mu.RUnlock()
	walDur := time.Duration(walNS.Load())
	if e.logs != nil {
		ws.stage(stageWALAppend, walDur)
	}
	apply := ws.since(mark)
	if apply > walDur { // appends on several units overlap; their sum can exceed the wall time
		apply -= walDur
	}
	ws.stage(stageTreeApply, apply)
	if err != nil {
		if err == ErrNotFound {
			return err // a missing segment is an answer, not a storage failure
		}
		return e.health.note(err)
	}
	// The durability wait runs OUTSIDE every lock: an fsync never blocks
	// readers or a checkpoint, and concurrent writers pile into each
	// log's group-commit round.
	if e.logs != nil && opts.Durability != DurabilityAsync {
		mark = ws.now()
		err = e.waitDurable(lsns, opts.Durability == DurabilitySync)
		ws.stage(stageFsyncWait, ws.since(mark))
	}
	return e.health.note(err)
}

// waitDurable blocks until every appended record in lsns is fsynced.
// Several touched logs sync in parallel — the wait is the slowest unit,
// not the sum; a single one is waited on directly.
func (e *engine) waitDurable(lsns []uint64, now bool) error {
	wait := func(i int) error {
		var err error
		if now {
			err = e.logs[i].SyncNow(lsns[i])
		} else {
			err = e.logs[i].Sync(lsns[i])
		}
		if err != nil {
			return fmt.Errorf("dynq: wal commit%s: %w", where(i, len(lsns)), err)
		}
		return nil
	}
	var touched []int
	for i, lsn := range lsns {
		if lsn != 0 {
			touched = append(touched, i)
		}
	}
	if len(touched) == 1 {
		return wait(touched[0])
	}
	errs := make([]error, len(touched))
	var wg sync.WaitGroup
	for j, i := range touched {
		wg.Add(1)
		go func(j, i int) {
			defer wg.Done()
			errs[j] = wait(i)
		}(j, i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// BulkLoadUpdates builds the index from an ordered batch at a 0.5 fill
// factor, every unit loading its share in parallel; the database must be
// empty and the batch must contain no deletions. It is far faster than
// repeated inserts for large historical loads. The load itself is NOT
// WAL-logged (a log entry per bulk segment would defeat the point); call
// Sync to make it durable. Unlike the data writes it holds the database
// lock exclusively: every unit's tree is swapped at once.
func (e *engine) BulkLoadUpdates(updates []MotionUpdate) error {
	entries := make([]rtree.LeafEntry, len(updates))
	for i, u := range updates {
		if u.Delete {
			return fmt.Errorf("dynq: BulkLoad batch contains a deletion (object %d); deletions need an existing index", u.ID)
		}
		g, err := newSegmentDims(u.Segment, e.dims)
		if err != nil {
			return err
		}
		entries[i] = rtree.LeafEntry{ID: rtree.ObjectID(u.ID), Seg: g}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.health.gate(); err != nil {
		return err
	}
	return e.health.note(e.units.BulkLoad(entries))
}

// WAL record payload: a batch of motion updates in slice order.
//
//	offset 0  1 byte  payload version (1)
//	offset 1  1 byte  spatial dimensionality
//	offset 2  4 bytes update count
//	then per update:
//	  1 byte  flags (bit 0 = delete)
//	  8 bytes object id
//	  8 bytes t0
//	  inserts only: 8 bytes t1, dims×8 bytes from, dims×8 bytes to
const updatesPayloadVersion = 1

func encodeUpdates(dims int, updates []MotionUpdate) []byte {
	size := 6
	for _, u := range updates {
		size += 1 + 8 + 8
		if !u.Delete {
			size += 8 + 2*8*dims
		}
	}
	buf := make([]byte, 0, size)
	buf = append(buf, updatesPayloadVersion, byte(dims))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(updates)))
	for _, u := range updates {
		var flags byte
		if u.Delete {
			flags |= 1
		}
		buf = append(buf, flags)
		buf = binary.LittleEndian.AppendUint64(buf, u.ID)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(u.Segment.T0))
		if u.Delete {
			continue
		}
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(u.Segment.T1))
		for _, v := range u.Segment.From {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		for _, v := range u.Segment.To {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	return buf
}

// decodeUpdates parses a WAL batch payload, validating it against the
// database's dimensionality. The record-level checksum already caught
// random corruption; this guards the logical layer.
func decodeUpdates(payload []byte, wantDims int) ([]MotionUpdate, error) {
	if len(payload) < 6 {
		return nil, fmt.Errorf("batch payload truncated (%d bytes)", len(payload))
	}
	if payload[0] != updatesPayloadVersion {
		return nil, fmt.Errorf("unsupported batch payload version %d", payload[0])
	}
	dims := int(payload[1])
	if dims != wantDims {
		return nil, fmt.Errorf("batch has %d dims, database has %d", dims, wantDims)
	}
	count := int(binary.LittleEndian.Uint32(payload[2:]))
	// Bound the claim by the real minimum update size (17 bytes) before
	// sizing the slice, so a corrupt-but-checksummed count cannot force a
	// multi-gigabyte allocation.
	if count > (len(payload)-6)/17 {
		return nil, fmt.Errorf("batch claims %d updates in %d bytes", count, len(payload))
	}
	readF64 := func(off int) float64 {
		return math.Float64frombits(binary.LittleEndian.Uint64(payload[off:]))
	}
	updates := make([]MotionUpdate, 0, count)
	off := 6
	for i := 0; i < count; i++ {
		if off+17 > len(payload) {
			return nil, fmt.Errorf("update %d truncated", i)
		}
		del := payload[off]&1 == 1
		u := MotionUpdate{ID: binary.LittleEndian.Uint64(payload[off+1:]), Delete: del}
		u.Segment.T0 = readF64(off + 9)
		off += 17
		if del {
			updates = append(updates, u)
			continue
		}
		need := 8 + 2*8*dims
		if off+need > len(payload) {
			return nil, fmt.Errorf("update %d truncated", i)
		}
		u.Segment.T1 = readF64(off)
		off += 8
		u.Segment.From = make([]float64, dims)
		u.Segment.To = make([]float64, dims)
		for d := 0; d < dims; d++ {
			u.Segment.From[d] = readF64(off)
			off += 8
		}
		for d := 0; d < dims; d++ {
			u.Segment.To[d] = readF64(off)
			off += 8
		}
		updates = append(updates, u)
	}
	if off != len(payload) {
		return nil, fmt.Errorf("batch carries %d trailing bytes", len(payload)-off)
	}
	return updates, nil
}
