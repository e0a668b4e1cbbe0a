package dynq

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"

	"dynq/internal/rtree"
)

// WALSoakOptions configure WALSoak, the crash/reopen loop behind
// dqbench -faults -wal. Unlike FaultSoak it injects no storage faults
// into the page file; the adversary here is the crash itself — torn
// bytes at the tail of the write-ahead log, exactly where a real crash
// mid-append or mid-group-commit tears.
type WALSoakOptions struct {
	// Cycles is the number of crash/reopen iterations (default 50).
	Cycles int
	// Seed drives the workload, the tear schedule, and the query mix;
	// the same seed replays the same soak (default 1).
	Seed int64
	// Batch is the number of motion updates per ApplyUpdates batch
	// (default 32).
	Batch int
	// AckedBatches is the number of durably acknowledged batches per
	// cycle, spread across Writers goroutines so group commit coalesces
	// them (default 4). Every acknowledged batch MUST survive the crash.
	AckedBatches int
	// AsyncBatches is the number of DurabilityAsync batches appended
	// after the acknowledged phase (default 4). These are the torn
	// tail's victims: a crash may keep a prefix of them, record by
	// record, never a partial record.
	AsyncBatches int
	// Writers is the number of concurrent goroutines issuing the
	// acknowledged batches (default 4).
	Writers int
	// BufferPages is the page-buffer capacity (default 4096). It must
	// hold the working set: the soak relies on dirty pages staying in
	// memory between checkpoints so the crash never tears the page file
	// itself — that failure class is FaultSoak's department.
	BufferPages int
	// CheckpointEvery checkpoints (Sync) after the acknowledged phase
	// every n-th cycle, exercising log truncation and the epoch bump
	// (default 3; <0 disables).
	CheckpointEvery int
	// MaxSegments rotates to a fresh file + log once the committed set
	// grows past it (default 8192).
	MaxSegments int
	// Shards is the number of units (default 1, the single-file layout;
	// more: one page file and one log per shard). Each crash tears a
	// random subset of the logs independently. Acked batches must survive
	// across ALL logs; async sub-batches survive per unit, record-aligned
	// in that unit's log.
	Shards int
	// Dir is the working directory (default: a fresh temp dir).
	Dir string
	// Log, when set, receives one progress line per 25 cycles.
	Log func(format string, args ...any)
}

// WALSoakReport summarizes a WALSoak run. The invariants are
// LostAcked == 0 (no acknowledged write may vanish, whatever was torn)
// and WrongAnswers == 0 (the recovered database answers every query
// exactly like a replica that never crashed).
type WALSoakReport struct {
	Cycles          int // crash/reopen iterations executed
	BatchesAcked    int // durably acknowledged batches (all must survive)
	BatchesAsync    int // async batches exposed to the tear
	AsyncSurvived   int // async batches found intact after replay
	Tears           int // cycles whose log tail was torn or corrupted
	TornTails       int // reopens that reported a discarded torn tail
	Checkpoints     int // Sync checkpoints taken
	RecordsReplayed int // WAL records re-applied across all reopens
	UpdatesReplayed int // motion updates re-applied across all reopens
	Rotations       int // fresh-file rotations after MaxSegments
	LostAcked       int // acknowledged batches missing after replay (MUST be 0)
	WrongAnswers    int // query answers differing from the replica (MUST be 0)
	QueriesCompared int // individual query comparisons performed
}

func (r WALSoakReport) String() string {
	return fmt.Sprintf(
		"%d cycles: %d acked + %d async batches (%d survived), %d tears (%d torn tails discarded), %d checkpoints, replayed %d records (%d updates), %d rotations | %d lost acked, %d wrong answers (%d queries compared)",
		r.Cycles, r.BatchesAcked, r.BatchesAsync, r.AsyncSurvived,
		r.Tears, r.TornTails, r.Checkpoints,
		r.RecordsReplayed, r.UpdatesReplayed, r.Rotations,
		r.LostAcked, r.WrongAnswers, r.QueriesCompared)
}

// WALSoak runs crash/reopen cycles against a WAL-armed file database of
// opts.Shards units (one: the single-file layout). Each cycle reopens
// with recovery (replaying every log), verifies the recovered answers
// against an in-memory replica of the same unit count fed the same
// batches, then writes a new round: concurrently group-committed batches
// that must survive, a checkpoint every few cycles, and a tail of
// DurabilityAsync batches. The cycle ends in a hard crash — page files
// and logs abandoned without a sync — followed, most cycles, by tears:
// each log independently truncated or bit-flipped strictly after its
// last acknowledged (fsynced) offset, simulating a torn append or a
// group commit that died mid-write, so recovery must replay logs that
// diverged (one torn mid-record, one clean, one freshly checkpointed).
// Acknowledged data is never touched, because a completed fsync means
// those bytes survive a real crash.
func WALSoak(opts WALSoakOptions) (WALSoakReport, error) {
	if opts.Cycles <= 0 {
		opts.Cycles = 50
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Batch <= 0 {
		opts.Batch = 32
	}
	if opts.AckedBatches <= 0 {
		opts.AckedBatches = 4
	}
	if opts.AsyncBatches <= 0 {
		opts.AsyncBatches = 4
	}
	if opts.Writers <= 0 {
		opts.Writers = 4
	}
	if opts.BufferPages <= 0 {
		opts.BufferPages = 4096
	}
	if opts.CheckpointEvery == 0 {
		opts.CheckpointEvery = 3
	}
	if opts.MaxSegments <= 0 {
		opts.MaxSegments = 8192
	}
	if opts.Shards <= 0 {
		opts.Shards = 1
	}
	dir := opts.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "dynq-walsoak")
		if err != nil {
			return WALSoakReport{}, err
		}
		defer os.RemoveAll(dir)
	}
	path := filepath.Join(dir, "walsoak.dynq")
	n := opts.Shards
	lay := shardLayout(path)
	if n == 1 {
		lay = singleLayout(path, path+".wal")
	}

	var rep WALSoakReport
	var committed []soakSeg // acknowledged state, for rotation rebuilds
	replica, err := createEngine(Options{}, n, 0, layout{}, false)
	if err != nil {
		return rep, err
	}
	defer func() { replica.Close() }()
	if err := rebuildLogged(lay, n, committed, opts.BufferPages); err != nil {
		return rep, err
	}

	wrand := rand.New(rand.NewSource(opts.Seed))
	var nextID ObjectID
	// pendingAsync holds the async batches appended before the last
	// crash, in append order; replay keeps a per-record prefix of each
	// log's share of them.
	var pendingAsync [][]soakSeg
	for cycle := 0; cycle < opts.Cycles; cycle++ {
		rep.Cycles++

		// Recovery phase: reopen every unit, replay every log (found by
		// auto-detection), reconcile the replica with each unit's
		// surviving async prefix, and compare answers.
		db, err := recoverEngine(recoverSpec{lay: lay, units: n, bufferPages: opts.BufferPages})
		if err != nil {
			return rep, fmt.Errorf("cycle %d: reopen: %w", cycle, err)
		}
		torn := false
		for i, rrep := range db.recovery {
			if !rrep.WALArmed {
				db.Close()
				return rep, fmt.Errorf("cycle %d: reopen did not arm the wal sidecar%s", cycle, where(i, n))
			}
			rep.RecordsReplayed += rrep.WALRecordsReplayed
			rep.UpdatesReplayed += rrep.WALUpdatesReplayed
			torn = torn || rrep.WALTornTail
		}
		if torn {
			rep.TornTails++
		}
		survived, err := reconcileAsync(db, replica, &committed, pendingAsync)
		if err != nil {
			db.Close()
			return rep, fmt.Errorf("cycle %d: %w", cycle, err)
		}
		if survived < 0 {
			rep.LostAcked++
			survived = 0
		}
		rep.AsyncSurvived += survived
		pendingAsync = nil
		qrand := rand.New(rand.NewSource(opts.Seed ^ (int64(cycle)+1)*0x5DEECE66D))
		wrong, compared, err := compareAnswers(db, replica, qrand)
		if err != nil {
			db.Close()
			return rep, fmt.Errorf("cycle %d: query comparison: %w", cycle, err)
		}
		rep.WrongAnswers += wrong
		rep.QueriesCompared += compared

		// Acknowledged write phase: concurrent batches, group-committed
		// across every touched log.
		acked, err := soakAckedPhase(db, replica, wrand, &nextID, opts.AckedBatches, opts.Batch, opts.Writers)
		if err != nil {
			db.Close()
			return rep, fmt.Errorf("cycle %d: %w", cycle, err)
		}
		rep.BatchesAcked += opts.AckedBatches
		committed = append(committed, acked...)

		if opts.CheckpointEvery > 0 && cycle%opts.CheckpointEvery == opts.CheckpointEvery-1 {
			if err := db.Sync(); err != nil {
				db.Close()
				return rep, fmt.Errorf("cycle %d: checkpoint: %w", cycle, err)
			}
			rep.Checkpoints++
		}

		// The durable boundaries: every byte of every log on disk right now
		// is covered by a completed fsync (the soak is quiescent), so the
		// tears must land strictly beyond these offsets.
		ackedSizes := make([]int64, n)
		for i := range ackedSizes {
			if ackedSizes[i], err = fileSize(lay.log(i)); err != nil {
				db.Close()
				return rep, fmt.Errorf("cycle %d: %w", cycle, err)
			}
		}

		// Async tail: appended, applied in memory, never awaited. Each
		// batch leaves one record in every log it touches.
		for i := 0; i < opts.AsyncBatches; i++ {
			b := genSoakBatch(wrand, opts.Batch, &nextID)
			if err := db.ApplyUpdates(context.Background(), toUpdates(b), WriteOptions{Durability: DurabilityAsync}); err != nil {
				db.Close()
				return rep, fmt.Errorf("cycle %d: async batch: %w", cycle, err)
			}
			pendingAsync = append(pendingAsync, b)
		}
		rep.BatchesAsync += len(pendingAsync)

		if err := db.crash(); err != nil {
			return rep, fmt.Errorf("cycle %d: crash: %w", cycle, err)
		}
		tornAny := false
		for i := 0; i < n; i++ {
			torn, err := tearWALTail(lay.log(i), ackedSizes[i], wrand)
			if err != nil {
				return rep, fmt.Errorf("cycle %d: tear%s: %w", cycle, where(i, n), err)
			}
			tornAny = tornAny || torn
		}
		if tornAny {
			rep.Tears++
		}

		if len(committed) >= opts.MaxSegments {
			committed = committed[:0]
			pendingAsync = nil
			replica.Close()
			if replica, err = createEngine(Options{}, n, 0, layout{}, false); err != nil {
				return rep, err
			}
			if err := rebuildLogged(lay, n, committed, opts.BufferPages); err != nil {
				return rep, err
			}
			rep.Rotations++
		}
		if opts.Log != nil && (cycle+1)%25 == 0 {
			opts.Log("wal soak cycle %d/%d (%d logs): %s", cycle+1, opts.Cycles, n, rep)
		}
	}
	return rep, nil
}

// soakAckedPhase generates batches and applies them to db from writers
// concurrent goroutines with explicit durability, then mirrors them into
// the replica and returns their segments. Batches use disjoint fresh
// ids, so they commute — the replica can apply them in any order and
// still answer identically. A third of the batches carry churn (delete +
// reinsert of their own first segment) so replay exercises the delete
// path without changing the final state.
func soakAckedPhase(db, replica *engine, wrand *rand.Rand, nextID *ObjectID, batches, size, writers int) ([]soakSeg, error) {
	var acked []soakSeg
	ups := make([][]MotionUpdate, batches)
	for i := range ups {
		b := genSoakBatch(wrand, size, nextID)
		acked = append(acked, b...)
		ups[i] = toUpdates(b)
		if wrand.Intn(3) == 0 {
			ups[i] = withChurn(ups[i])
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(ups); i += writers {
				d := DurabilityGroupCommit
				if i%5 == 4 {
					d = DurabilitySync
				}
				if err := db.ApplyUpdates(context.Background(), ups[i], WriteOptions{Durability: d}); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("acked batch: %w", err)
	}
	for _, s := range acked {
		if err := replica.Insert(s.id, s.seg); err != nil {
			return nil, fmt.Errorf("replica insert: %w", err)
		}
	}
	return acked, nil
}

// reconcileAsync determines, per unit, how many of the pre-crash async
// records survived replay (each log keeps a record-aligned prefix of ITS
// OWN records, independent of the others), applies exactly those
// segments to the replica, and returns the number of async batches that
// survived on every unit they touched. A negative return means a unit
// recovered fewer segments than its acknowledged state — lost acked
// data, the invariant the soak exists to catch.
func reconcileAsync(db, replica *engine, committed *[]soakSeg, pendingAsync [][]soakSeg) (int, error) {
	gotStats, err := db.statsByUnit()
	if err != nil {
		return 0, err
	}
	baseStats, err := replica.statsByUnit()
	if err != nil {
		return 0, err
	}
	n := len(gotStats)

	// Partition each pending batch by owner unit: subs[s] is the ordered
	// list of this crash window's async records in unit s's log, and
	// batchOf[s][j] says which batch record j came from.
	subs := make([][][]soakSeg, n)
	batchOf := make([][]int, n)
	for b, batch := range pendingAsync {
		parts := make([][]soakSeg, n)
		for _, s := range batch {
			u := db.units.ShardFor(rtree.ObjectID(s.id))
			parts[u] = append(parts[u], s)
		}
		for s, p := range parts {
			if len(p) > 0 {
				subs[s] = append(subs[s], p)
				batchOf[s] = append(batchOf[s], b)
			}
		}
	}

	// Each unit's extra segments must be an exact prefix sum of its
	// async record sizes: replay keeps whole records, in order.
	survivedRecords := make([]int, n)
	for s := 0; s < n; s++ {
		extra := gotStats[s].Segments - baseStats[s].Segments
		if extra < 0 {
			return -1, nil
		}
		sum, m := 0, 0
		for m < len(subs[s]) && sum < extra {
			sum += len(subs[s][m])
			m++
		}
		if sum != extra {
			return 0, fmt.Errorf("recovered %d extra segments%s, not a record-aligned prefix of its %d async records",
				extra, where(s, n), len(subs[s]))
		}
		survivedRecords[s] = m
	}

	// Fold the surviving per-unit records into the replica and the
	// committed set; count the batches intact on every unit they touch.
	fullBatch := make([]bool, len(pendingAsync))
	for i := range fullBatch {
		fullBatch[i] = true
	}
	for s := 0; s < n; s++ {
		for j := 0; j < survivedRecords[s]; j++ {
			for _, seg := range subs[s][j] {
				*committed = append(*committed, seg)
				if err := replica.Insert(seg.id, seg.seg); err != nil {
					return 0, fmt.Errorf("replica insert: %w", err)
				}
			}
		}
		for j := survivedRecords[s]; j < len(subs[s]); j++ {
			fullBatch[batchOf[s][j]] = false
		}
	}
	survived := 0
	for _, ok := range fullBatch {
		if ok {
			survived++
		}
	}
	return survived, nil
}

// toUpdates converts a generated batch to the ApplyUpdates form.
func toUpdates(batch []soakSeg) []MotionUpdate {
	ups := make([]MotionUpdate, len(batch))
	for i, s := range batch {
		ups[i] = MotionUpdate{ID: s.id, Segment: s.seg}
	}
	return ups
}

// withChurn appends a delete and an identical reinsert of the batch's
// first segment, so replay exercises deletion while the batch's final
// state stays exactly that of the plain inserts.
func withChurn(ups []MotionUpdate) []MotionUpdate {
	u := ups[0]
	return append(ups,
		MotionUpdate{ID: u.ID, Segment: Segment{T0: u.Segment.T0}, Delete: true},
		u)
}

// tearWALTail damages the crash-exposed region of the log — the bytes
// past the last completed fsync. Three moves, chosen by the schedule:
// truncate into the region (a torn append: the OS persisted a prefix of
// a record), truncate deeper (a group commit that died after its first
// record hit the platter), or flip a byte mid-region (a sector that
// persisted garbage). About a quarter of cycles leave the tail intact,
// covering the every-byte-made-it crash.
func tearWALTail(walPath string, ackedSize int64, r *rand.Rand) (bool, error) {
	total, err := fileSize(walPath)
	if err != nil {
		return false, err
	}
	exposed := total - ackedSize
	if exposed <= 0 || r.Float64() < 0.25 {
		return false, nil
	}
	f, err := os.OpenFile(walPath, os.O_RDWR, 0)
	if err != nil {
		return false, err
	}
	defer f.Close()
	switch r.Intn(3) {
	case 0: // tear the final record: cut 1..min(64, exposed) bytes
		cut := int64(1 + r.Intn(int(min64(64, exposed))))
		return true, f.Truncate(total - cut)
	case 1: // tear deep: cut anywhere into the exposed region
		cut := int64(1 + r.Intn(int(exposed)))
		return true, f.Truncate(total - cut)
	default: // flip one byte somewhere in the exposed region
		off := ackedSize + int64(r.Intn(int(exposed)))
		var b [1]byte
		if _, err := f.ReadAt(b[:], off); err != nil {
			return false, err
		}
		b[0] ^= 0x40
		_, err := f.WriteAt(b[:], off)
		return true, err
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func fileSize(path string) (int64, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// rebuildLogged removes any previous files under the layout and creates
// a fresh logged database holding the committed sequence, checkpointed
// so the next recovering open arms the sidecars with nothing to replay.
func rebuildLogged(lay layout, n int, committed []soakSeg, bufferPages int) error {
	for i := 0; i < n; i++ {
		for _, p := range []string{lay.page(i), lay.log(i)} {
			if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
	}
	db, err := createEngine(Options{BufferPages: bufferPages}, n, 0, lay, true)
	if err != nil {
		return err
	}
	if len(committed) > 0 {
		// One async batch, then a checkpoint: the contents are durable by
		// the Sync below, so per-insert fsync waits buy nothing.
		if err := db.ApplyUpdates(context.Background(), toUpdates(committed), WriteOptions{Durability: DurabilityAsync}); err != nil {
			db.Close()
			return err
		}
	}
	if err := db.Sync(); err != nil {
		db.Close()
		return err
	}
	return db.Close()
}
