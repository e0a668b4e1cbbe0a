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

const (
	// walSoakAckedBatches is the number of durably acknowledged batches
	// per cycle, spread across walSoakWriters goroutines so group commit
	// coalesces them. Every acknowledged batch MUST survive the crash.
	walSoakAckedBatches = 4
	walSoakWriters      = 4
	// walSoakAsyncBatches is the number of DurabilityAsync batches WALSoak
	// appends after the acknowledged phase. These are the torn tail's
	// victims: a crash may keep a prefix of them, record by record, never
	// a partial record.
	walSoakAsyncBatches = 4
	// walSoakBufferPages is the page-buffer capacity. It must hold the
	// working set: the soak relies on dirty pages staying in memory
	// between checkpoints so the crash never tears the page file itself —
	// that failure class is FaultSoak's department.
	walSoakBufferPages = 4096
	// walSoakCheckpointEvery makes WALSoak checkpoint (Sync) after the
	// acknowledged phase every n-th cycle, exercising log truncation and
	// the epoch bump.
	walSoakCheckpointEvery = 3
	// walSoakMaxSegments rotates to fresh files and logs once the
	// committed set grows past it.
	walSoakMaxSegments = 8192
)

// walCycleCounts are the counters of the crash cycle WALSoak and
// ChaosSoak share. The invariants are LostAcked == 0 (no acknowledged
// write may vanish, whatever was torn) and WrongAnswers == 0 (the
// recovered database answers every query exactly like a replica that
// never crashed).
type walCycleCounts struct {
	Cycles          int // crash/reopen iterations executed
	BatchesAcked    int // durably acknowledged batches (all must survive)
	BatchesAsync    int // async batches exposed to the tear
	AsyncSurvived   int // async batches found intact after replay
	Tears           int // cycles whose log tail was torn or corrupted
	TornTails       int // reopens that reported a discarded torn tail
	RecordsReplayed int // WAL records re-applied across all reopens
	UpdatesReplayed int // motion updates re-applied across all reopens
	Rotations       int // fresh-file rotations once the committed set outgrows the cap
	LostAcked       int // acknowledged batches missing after replay (MUST be 0)
	WrongAnswers    int // query answers differing from the replica (MUST be 0)
	QueriesCompared int // individual query comparisons performed
}

// WALSoakReport summarizes a WALSoak run: the shared crash-cycle
// counters (Cycles, BatchesAcked, BatchesAsync, AsyncSurvived, Tears,
// TornTails, RecordsReplayed, UpdatesReplayed, Rotations, LostAcked,
// WrongAnswers, QueriesCompared) plus its own checkpoints. The
// invariants are LostAcked == 0 and WrongAnswers == 0.
type WALSoakReport struct {
	walCycleCounts
	Checkpoints int // Sync checkpoints taken
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
		lay = singleLayout(path)
	}

	var rep WALSoakReport
	err := (&walCrashSoak{
		counts: &rep.walCycleCounts,
		seed:   opts.Seed, cycles: opts.Cycles, units: n, lay: lay,
		batch: opts.Batch, asyncBatches: walSoakAsyncBatches,
		// Recovery finds every log by auto-detection.
		open: func() (*engine, error) {
			return recoverEngine(recoverSpec{lay: lay, units: n, bufferPages: walSoakBufferPages})
		},
		quiescent: func(cycle int, db *engine) error {
			if cycle%walSoakCheckpointEvery != walSoakCheckpointEvery-1 {
				return nil
			}
			if err := db.Sync(); err != nil {
				return fmt.Errorf("checkpoint: %w", err)
			}
			rep.Checkpoints++
			return nil
		},
		progress: func(cycle int) {
			if opts.Log != nil && (cycle+1)%25 == 0 {
				opts.Log("wal soak cycle %d/%d (%d logs): %s", cycle+1, opts.Cycles, n, rep)
			}
		},
	}).run()
	return rep, err
}

// walCrashSoak is the one WAL crash cycle, driven by WALSoak and by
// ChaosSoak: recover → reconcile the async prefix that survived → compare
// answers with the replica → acknowledged phase → the caller's quiescent
// step → async tail → hard crash → torn log tails → rotation. The callers
// differ in how they open the files and in the quiescent step.
type walCrashSoak struct {
	counts *walCycleCounts
	seed   int64
	cycles int
	units  int
	lay    layout
	// batch is the number of motion updates per batch; asyncBatches the
	// number of async batches appended before each crash.
	batch, asyncBatches int
	// open is the recovering open of the files under lay.
	open func() (*engine, error)
	// quiescent runs after the acknowledged phase, with no write in
	// flight: WALSoak's periodic checkpoint; ChaosSoak's maintenance tick,
	// fault episode and scrub. Whatever it commits it must also mirror.
	quiescent func(cycle int, db *engine) error
	// progress is called at the end of every cycle.
	progress func(cycle int)

	wrand   *rand.Rand
	nextID  ObjectID
	replica *engine // fed every surviving batch, never crashed
	// segments counts the committed set, for rotation.
	segments int
	// pendingAsync holds the async batches appended before the last
	// crash, in append order; replay keeps a per-record prefix of each
	// log's share of them.
	pendingAsync [][]soakSeg
}

func (s *walCrashSoak) nextBatch(size int) []soakSeg {
	return genSoakBatch(s.wrand, size, &s.nextID)
}

// mirror folds a batch the database durably holds into the replica.
func (s *walCrashSoak) mirror(batch []soakSeg) error {
	s.segments += len(batch)
	for _, seg := range batch {
		if err := s.replica.Insert(seg.id, seg.seg); err != nil {
			return fmt.Errorf("replica insert: %w", err)
		}
	}
	return nil
}

// fresh starts over with an empty replica and empty, checkpointed files.
func (s *walCrashSoak) fresh() (err error) {
	if s.replica != nil {
		s.replica.Close()
	}
	s.segments, s.pendingAsync = 0, nil
	if s.replica, err = createEngine(Options{}, s.units, layout{}, false); err != nil {
		return err
	}
	return rebuildLogged(s.lay, s.units, walSoakBufferPages)
}

func (s *walCrashSoak) run() error {
	defer func() {
		if s.replica != nil {
			s.replica.Close()
		}
	}()
	if err := s.fresh(); err != nil {
		return err
	}
	s.wrand = rand.New(rand.NewSource(s.seed))
	for cycle := 0; cycle < s.cycles; cycle++ {
		s.counts.Cycles++
		db, err := s.open()
		if err != nil {
			return fmt.Errorf("cycle %d: reopen: %w", cycle, err)
		}
		ackedSizes, err := s.live(cycle, db)
		if err != nil {
			db.Close()
			return fmt.Errorf("cycle %d: %w", cycle, err)
		}

		if err := db.crash(); err != nil {
			return fmt.Errorf("cycle %d: crash: %w", cycle, err)
		}
		tornAny := false
		for i := 0; i < s.units; i++ {
			torn, err := tearWALTail(s.lay.log(i), ackedSizes[i], s.wrand)
			if err != nil {
				return fmt.Errorf("cycle %d: tear%s: %w", cycle, where(i, s.units), err)
			}
			tornAny = tornAny || torn
		}
		if tornAny {
			s.counts.Tears++
		}

		if s.segments >= walSoakMaxSegments {
			if err := s.fresh(); err != nil {
				return err
			}
			s.counts.Rotations++
		}
		s.progress(cycle)
	}
	return nil
}

// live is a cycle's life between the recovering open and the crash. It
// leaves the async batches it exposed in pendingAsync and returns, per
// log, the durable boundary the tear must stay beyond.
func (s *walCrashSoak) live(cycle int, db *engine) ([]int64, error) {
	// Recovery phase: every unit reopened and every log replayed;
	// reconcile the replica with each unit's surviving async prefix and
	// compare answers.
	torn := false
	for i, rrep := range db.recovery {
		if !rrep.WALArmed {
			return nil, fmt.Errorf("reopen did not arm the wal sidecar%s", where(i, s.units))
		}
		s.counts.RecordsReplayed += rrep.WALRecordsReplayed
		s.counts.UpdatesReplayed += rrep.WALUpdatesReplayed
		torn = torn || rrep.WALTornTail
	}
	if torn {
		s.counts.TornTails++
	}
	survived, err := s.reconcileAsync(db)
	if err != nil {
		return nil, err
	}
	if survived < 0 {
		s.counts.LostAcked++
		survived = 0
	}
	s.counts.AsyncSurvived += survived
	qrand := rand.New(rand.NewSource(s.seed ^ (int64(cycle)+1)*0x5DEECE66D))
	wrong, compared, err := compareAnswers(db, s.replica, qrand)
	if err != nil {
		return nil, fmt.Errorf("query comparison: %w", err)
	}
	s.counts.WrongAnswers += wrong
	s.counts.QueriesCompared += compared

	// Acknowledged write phase: concurrent batches, group-committed
	// across every touched log.
	if err := s.ackedPhase(db); err != nil {
		return nil, err
	}
	s.counts.BatchesAcked += walSoakAckedBatches

	if err := s.quiescent(cycle, db); err != nil {
		return nil, err
	}

	// The durable boundaries: every byte of every log on disk right now
	// is covered by a completed fsync (the soak is quiescent), so the
	// tears must land strictly beyond these offsets.
	ackedSizes := make([]int64, s.units)
	for i := range ackedSizes {
		if ackedSizes[i], err = fileSize(s.lay.log(i)); err != nil {
			return nil, err
		}
	}

	// Async tail: appended, applied in memory, never awaited. Each batch
	// leaves one record in every log it touches.
	s.pendingAsync = nil
	for i := 0; i < s.asyncBatches; i++ {
		b := s.nextBatch(s.batch)
		if err := db.ApplyUpdates(context.Background(), toUpdates(b), WriteOptions{Durability: DurabilityAsync}); err != nil {
			return nil, fmt.Errorf("async batch: %w", err)
		}
		s.pendingAsync = append(s.pendingAsync, b)
	}
	s.counts.BatchesAsync += len(s.pendingAsync)
	return ackedSizes, nil
}

// ackedPhase generates walSoakAckedBatches batches and applies them to db
// from walSoakWriters concurrent goroutines with explicit durability, then
// mirrors them into the replica. Batches use disjoint fresh ids, so they
// commute — the replica can apply them in any order and still answer
// identically. A third of the batches carry churn (delete + reinsert of
// their own first segment) so replay exercises the delete path without
// changing the final state.
func (s *walCrashSoak) ackedPhase(db *engine) error {
	var acked []soakSeg
	ups := make([][]MotionUpdate, walSoakAckedBatches)
	for i := range ups {
		b := s.nextBatch(s.batch)
		acked = append(acked, b...)
		ups[i] = toUpdates(b)
		if s.wrand.Intn(3) == 0 {
			ups[i] = withChurn(ups[i])
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, walSoakWriters)
	for w := 0; w < walSoakWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(ups); i += walSoakWriters {
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
		return fmt.Errorf("acked batch: %w", err)
	}
	return s.mirror(acked)
}

// reconcileAsync determines, per unit, how many of the pre-crash async
// records survived replay (each log keeps a record-aligned prefix of ITS
// OWN records, independent of the others), mirrors exactly those
// segments into the replica, and returns the number of async batches that
// survived on every unit they touched. A negative return means a unit
// recovered fewer segments than its acknowledged state — lost acked
// data, the invariant the soak exists to catch.
func (s *walCrashSoak) reconcileAsync(db *engine) (int, error) {
	pendingAsync := s.pendingAsync
	gotStats, err := db.statsByUnit()
	if err != nil {
		return 0, err
	}
	baseStats, err := s.replica.statsByUnit()
	if err != nil {
		return 0, err
	}
	n := len(gotStats)

	// Partition each pending batch by owner unit: subs[u] is the ordered
	// list of this crash window's async records in unit u's log, and
	// batchOf[u][j] says which batch record j came from.
	subs := make([][][]soakSeg, n)
	batchOf := make([][]int, n)
	for b, batch := range pendingAsync {
		parts := make([][]soakSeg, n)
		for _, seg := range batch {
			u := db.units.ShardFor(rtree.ObjectID(seg.id))
			parts[u] = append(parts[u], seg)
		}
		for u, p := range parts {
			if len(p) > 0 {
				subs[u] = append(subs[u], p)
				batchOf[u] = append(batchOf[u], b)
			}
		}
	}

	// Each unit's extra segments must be an exact prefix sum of its
	// async record sizes: replay keeps whole records, in order.
	survivedRecords := make([]int, n)
	for u := 0; u < n; u++ {
		extra := gotStats[u].Segments - baseStats[u].Segments
		if extra < 0 {
			return -1, nil
		}
		sum, m := 0, 0
		for m < len(subs[u]) && sum < extra {
			sum += len(subs[u][m])
			m++
		}
		if sum != extra {
			return 0, fmt.Errorf("recovered %d extra segments%s, not a record-aligned prefix of its %d async records",
				extra, where(u, n), len(subs[u]))
		}
		survivedRecords[u] = m
	}

	// Mirror the surviving per-unit records; count the batches intact on
	// every unit they touch.
	fullBatch := make([]bool, len(pendingAsync))
	for i := range fullBatch {
		fullBatch[i] = true
	}
	for u := 0; u < n; u++ {
		for j := 0; j < survivedRecords[u]; j++ {
			if err := s.mirror(subs[u][j]); err != nil {
				return 0, err
			}
		}
		for j := survivedRecords[u]; j < len(subs[u]); j++ {
			fullBatch[batchOf[u][j]] = false
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
// a fresh, empty logged database, checkpointed so the next recovering
// open arms the sidecars with nothing to replay.
func rebuildLogged(lay layout, n int, bufferPages int) error {
	for i := 0; i < n; i++ {
		for _, p := range []string{lay.page(i), lay.log(i)} {
			if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
	}
	db, err := createEngine(Options{BufferPages: bufferPages}, n, lay, true)
	if err != nil {
		return err
	}
	if err := db.Sync(); err != nil {
		db.Close()
		return err
	}
	return db.Close()
}
