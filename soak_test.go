package dynq

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"dynq/internal/fault"
	"dynq/internal/pager"
	"dynq/internal/rtree"
)

// The crash soaks check the durability form of the paper's contract:
// after any crash, the recovered index answers every snapshot, KNN, PDQ
// and NPDQ query exactly as a replica that never crashed. One driver,
// crashSoak, runs the cycles of every soak; a soak is the hooks it
// supplies (faultSoak, logSoak, chaosSoak). TestSoakReports runs them.

const (
	// faultSoakBufferPages is the fault soak's write-phase buffer. A
	// buffer makes crash points interesting: dirty pages reach disk in a
	// burst at Sync, which is where torn writes bite.
	faultSoakBufferPages = 256
	// faultSoakMaxSegments rotates the fault soak to a fresh file once
	// the committed set grows past it, bounding per-cycle cost.
	faultSoakMaxSegments = 4096

	// walSoakAckedBatches is the number of durably acknowledged batches
	// per log soak cycle, spread across walSoakWriters goroutines so
	// group commit coalesces them. Every acknowledged batch MUST survive
	// the crash.
	walSoakAckedBatches = 4
	walSoakWriters      = 4
	// walSoakAsyncBatches is the number of DurabilityAsync batches the
	// WAL soak appends after the acknowledged phase. These are the torn
	// tail's victims: a crash may keep a prefix of them, record by
	// record, never a partial record.
	walSoakAsyncBatches = 4
	// walSoakBufferPages is the log soaks' page buffer. It must hold the
	// working set: dirty pages stay in memory between checkpoints, so the
	// crash never tears the page file itself — that failure class is the
	// fault soak's.
	walSoakBufferPages = 4096
	// walSoakCheckpointEvery makes the WAL soak checkpoint (Sync) after
	// the acknowledged phase every n-th cycle, exercising log truncation
	// and the epoch bump.
	walSoakCheckpointEvery = 3
	// walSoakMaxSegments is the log soaks' rotation cap.
	walSoakMaxSegments = 8192
)

// soakFaultPlan is the fault soak's mix: occasional torn writes and
// failed syncs (the crash-consistency killers), rarer plain I/O errors,
// and a trickle of bit rot.
var soakFaultPlan = fault.Plan{
	ReadErr:   0.01,
	WriteErr:  0.02,
	SyncErr:   0.05,
	TornWrite: 0.05,
	BitFlip:   0.01,
}

// soakSeg is one (object, segment) pair of a soak's workload.
type soakSeg struct {
	id  ObjectID
	seg Segment
}

// soakCounts are the counters of every soak; each prints its own in its
// report line. TestSoakReports asserts on every run that lostAcked,
// wrongAnswers, walBoundViolations, untypedWriteErrors and
// scrubCorruptions are 0 and that heals >= degradations.
type soakCounts struct {
	cycles, rotations             int
	wrongAnswers, queriesCompared int

	// Every check is of a clean recovery; a reopen that reports typed
	// corruption instead (the fault soak's) rebuilds the files.
	cleanRecoveries, pagesVerified, corruptions int

	// The fault soak's write phases.
	committed, insertFaults, syncFaults int

	// The log soaks.
	batchesAcked, batchesAsync, asyncSurvived int
	tears, tornTails, checkpoints             int
	recordsReplayed, updatesReplayed          int
	lostAcked                                 int

	// The chaos soak's self-healing.
	autoCheckpoints, checkpointFailures, walBoundViolations               int
	diskFullEpisodes, transientFaults, diskFullWrites, untypedWriteErrors int
	degradations, probes, heals, maxProbesToHeal                          int
	scrubPasses, scrubPages, scrubCorruptions                             int
}

// crashSoak is the one crash cycle: open → check → write phase → hard
// crash → adversary → rotation, where a soak whose open injects faults
// checks after the crash instead. The driver owns the workload, the
// replica that never crashes, the comparison of answers and the rotation
// to fresh files; the hooks say how a soak opens, writes and attacks.
type crashSoak struct {
	seed   int64
	cycles int
	batch  int // segments per generated batch
	units  int
	lay    layout
	// logged files carry a log per unit; bufferPages is the page buffer
	// the files are created with.
	logged      bool
	bufferPages int
	maxSegments int // rotation cap on the committed set

	// open is the cycle's recovering open; the write phase runs on it.
	open func(cycle int) (*engine, error)
	// write is the write phase. It mirrors what became durable and
	// returns, per log, the offset the adversary must stay beyond.
	write func(cycle int, db *engine) ([]int64, error)
	// checkAfterCrash moves the check from the cycle's open to a clean
	// recovering open after the crash, for a soak whose open injects
	// faults; that open may report typed corruption, which rebuilds the
	// files from the committed set.
	checkAfterCrash bool
	// recovered accounts for a recovering open before its answers are
	// compared (nil: nothing beyond the driver's count).
	recovered func(db *engine) error
	// adversary damages the crashed files (nil: the crash alone).
	adversary func(bounds []int64) error
	// line renders the soak's report.
	line func(c soakCounts) string

	c       soakCounts
	wrand   *rand.Rand
	nextID  ObjectID
	replica *engine // fed every durable batch, never crashed
	// committed is what the replica holds, in the order it got it.
	committed []soakSeg
	// pendingAsync holds the async batches appended before the last
	// crash, in append order; replay keeps a per-record prefix of each
	// log's share of them.
	pendingAsync [][]soakSeg
}

func (s *crashSoak) run() (soakCounts, error) {
	defer func() {
		if s.replica != nil {
			s.replica.Close()
		}
	}()
	if err := s.fresh(); err != nil {
		return s.c, err
	}
	s.wrand = rand.New(rand.NewSource(s.seed))
	for cycle := 0; cycle < s.cycles; cycle++ {
		if err := s.cycle(cycle); err != nil {
			return s.c, fmt.Errorf("cycle %d: %w", cycle, err)
		}
	}
	return s.c, nil
}

func (s *crashSoak) cycle(cycle int) error {
	s.c.cycles++
	db, err := s.open(cycle)
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	if !s.checkAfterCrash {
		err = s.check(cycle, db)
	}
	var bounds []int64
	if err == nil {
		bounds, err = s.write(cycle, db)
	}
	if err != nil {
		db.Close()
		return err
	}
	if err := db.crash(); err != nil {
		return fmt.Errorf("crash: %w", err)
	}
	if s.adversary != nil {
		if err := s.adversary(bounds); err != nil {
			return err
		}
	}
	if s.checkAfterCrash {
		if err := s.checkReopen(cycle); err != nil {
			return err
		}
	}
	if len(s.committed) >= s.maxSegments {
		s.c.rotations++
		return s.fresh()
	}
	return nil
}

// check counts a clean recovering open and compares its answers with the
// replica's, after the soak's own accounting of the open.
func (s *crashSoak) check(cycle int, db *engine) error {
	s.c.cleanRecoveries++
	for _, r := range db.recovery {
		s.c.pagesVerified += r.PagesChecked
	}
	if s.recovered != nil {
		if err := s.recovered(db); err != nil {
			return err
		}
	}
	qrand := rand.New(rand.NewSource(s.seed ^ (int64(cycle)+1)*0x5DEECE66D))
	wrong, compared, err := compareAnswers(db, s.replica, qrand)
	if err != nil {
		return fmt.Errorf("query comparison: %w", err)
	}
	s.c.wrongAnswers += wrong
	s.c.queriesCompared += compared
	return nil
}

// checkReopen is the check after the crash: a clean recovering open
// either reports typed corruption, and the files are rebuilt from the
// committed set, or is compared with the replica.
func (s *crashSoak) checkReopen(cycle int) error {
	db, err := recoverEngine(recoverSpec{lay: s.lay, units: s.units})
	if err != nil {
		if !isTypedCorruption(err) {
			return fmt.Errorf("reopen failed with untyped error: %w", err)
		}
		s.c.corruptions++
		return createFiles(s.lay, s.units, s.logged, s.bufferPages, s.committed)
	}
	err = s.check(cycle, db)
	if cerr := db.Close(); err == nil {
		err = cerr
	}
	return err
}

// fresh starts over with an empty replica and empty, checkpointed files.
func (s *crashSoak) fresh() (err error) {
	if s.replica != nil {
		s.replica.Close()
	}
	s.committed, s.pendingAsync = nil, nil
	if s.replica, err = createEngine(Options{}, s.units, layout{}, false); err != nil {
		return err
	}
	return createFiles(s.lay, s.units, s.logged, s.bufferPages, nil)
}

func (s *crashSoak) nextBatch(size int) []soakSeg {
	return genSoakBatch(s.wrand, size, &s.nextID)
}

// mirror folds a batch the database durably holds into the replica.
func (s *crashSoak) mirror(batch []soakSeg) error {
	s.committed = append(s.committed, batch...)
	for _, seg := range batch {
		if err := s.replica.Insert(seg.id, seg.seg); err != nil {
			return fmt.Errorf("replica insert: %w", err)
		}
	}
	return nil
}

// faultSoak runs its write phase — one batch and a Sync — through a
// fault.Store scripted with plan, re-seeded per cycle, then checks
// a clean recovering open after the crash: it must either recover the
// committed state exactly or report typed corruption.
func faultSoak(dir string, seed int64, cycles, batch int, plan fault.Plan) *crashSoak {
	path := filepath.Join(dir, "soak.dynq")
	s := &crashSoak{
		seed: seed, cycles: cycles, batch: batch, units: 1, lay: singleLayout(path),
		bufferPages: faultSoakBufferPages, maxSegments: faultSoakMaxSegments,
		checkAfterCrash: true,
		line:            faultLine,
	}
	s.open = func(cycle int) (*engine, error) {
		p := plan
		p.Seed = uint64(seed)*0x9E3779B97F4A7C15 + uint64(cycle)
		db, _, err := openFaulted(path, recoverSpec{bufferPages: faultSoakBufferPages}, &p)
		if err != nil {
			return nil, err
		}
		return db.engine, nil
	}
	s.write = func(_ int, db *engine) ([]int64, error) {
		b := s.nextBatch(s.batch)
		for _, seg := range b {
			if err := db.Insert(seg.id, seg.seg); err != nil {
				s.c.insertFaults++
				return nil, nil
			}
		}
		if err := db.Sync(); err != nil {
			s.c.syncFaults++
			return nil, nil
		}
		// The Sync committed: the batch is durable by contract.
		s.c.committed++
		return nil, s.mirror(b)
	}
	return s
}

func faultLine(c soakCounts) string {
	return fmt.Sprintf(
		"%d cycles: %d committed, %d insert faults, %d sync faults | %d clean recoveries (%d pages verified, %d queries compared), %d detected corruptions (%d rebuilds), %d rotations | %d wrong answers",
		c.cycles, c.committed, c.insertFaults, c.syncFaults,
		c.cleanRecoveries, c.pagesVerified, c.queriesCompared,
		c.corruptions, c.corruptions, c.rotations, c.wrongAnswers)
}

// logSoak runs a WAL-armed database of units (one: the single-file
// layout). Each cycle's recovering open replays every log and is checked
// against a replica of the same unit count fed the same batches; then
// come concurrently group-committed batches that must survive, a
// checkpoint every few cycles, and a tail of DurabilityAsync batches.
// After the crash each log is independently torn strictly after its last
// acknowledged (fsynced) offset, so recovery must replay logs that
// diverged: one torn mid-record, one clean, one freshly checkpointed.
func logSoak(dir string, seed int64, cycles, batch, units int) *crashSoak {
	path := filepath.Join(dir, "walsoak.dynq")
	lay := shardLayout(path)
	if units == 1 {
		lay = singleLayout(path)
	}
	s := &crashSoak{
		seed: seed, cycles: cycles, batch: batch, units: units, lay: lay,
		logged: true, bufferPages: walSoakBufferPages, maxSegments: walSoakMaxSegments,
		line: walLine,
	}
	// Recovery finds every log by auto-detection.
	s.open = func(int) (*engine, error) {
		return recoverEngine(recoverSpec{lay: lay, units: units, bufferPages: walSoakBufferPages})
	}
	s.recovered = s.replayed
	s.write = func(cycle int, db *engine) ([]int64, error) {
		return s.logWrite(db, walSoakAsyncBatches, func() error {
			if cycle%walSoakCheckpointEvery != walSoakCheckpointEvery-1 {
				return nil
			}
			if err := db.Sync(); err != nil {
				return fmt.Errorf("checkpoint: %w", err)
			}
			s.c.checkpoints++
			return nil
		})
	}
	s.adversary = s.tearLogs
	return s
}

func walLine(c soakCounts) string {
	return fmt.Sprintf(
		"%d cycles: %d acked + %d async batches (%d survived), %d tears (%d torn tails discarded), %d checkpoints, replayed %d records (%d updates), %d rotations | %d lost acked, %d wrong answers (%d queries compared)",
		c.cycles, c.batchesAcked, c.batchesAsync, c.asyncSurvived,
		c.tears, c.tornTails, c.checkpoints,
		c.recordsReplayed, c.updatesReplayed, c.rotations,
		c.lostAcked, c.wrongAnswers, c.queriesCompared)
}

// replayed is the log soaks' account of a recovering open: every log
// armed and replayed, the replica reconciled with each unit's surviving
// async prefix.
func (s *crashSoak) replayed(db *engine) error {
	torn := false
	for i, r := range db.recovery {
		if !r.WALArmed {
			return fmt.Errorf("reopen did not arm the wal sidecar%s", where(i, s.units))
		}
		s.c.recordsReplayed += r.WALRecordsReplayed
		s.c.updatesReplayed += r.WALUpdatesReplayed
		torn = torn || r.WALTornTail
	}
	if torn {
		s.c.tornTails++
	}
	survived, err := s.reconcileAsync(db)
	if err != nil {
		return err
	}
	if survived < 0 {
		s.c.lostAcked++
		survived = 0
	}
	s.c.asyncSurvived += survived
	return nil
}

// logWrite is the log soaks' write phase: the acknowledged batches, the
// soak's quiescent step (no write in flight; whatever it commits it must
// also mirror), then asyncBatches batches left exposed to the tear. It
// returns per log the durable boundary.
func (s *crashSoak) logWrite(db *engine, asyncBatches int, quiescent func() error) ([]int64, error) {
	if err := s.ackedPhase(db); err != nil {
		return nil, err
	}
	s.c.batchesAcked += walSoakAckedBatches
	if err := quiescent(); err != nil {
		return nil, err
	}

	// Every byte of every log on disk right now is covered by a
	// completed fsync (the soak is quiescent), so the tears must land
	// strictly beyond these offsets.
	bounds := make([]int64, s.units)
	for i := range bounds {
		var err error
		if bounds[i], err = fileSize(s.lay.log(i)); err != nil {
			return nil, err
		}
	}

	// Async tail: appended, applied in memory, never awaited. Each batch
	// leaves one record in every log it touches.
	s.pendingAsync = nil
	for i := 0; i < asyncBatches; i++ {
		b := s.nextBatch(s.batch)
		if err := db.ApplyUpdates(context.Background(), toUpdates(b), WriteOptions{Durability: DurabilityAsync}); err != nil {
			return nil, fmt.Errorf("async batch: %w", err)
		}
		s.pendingAsync = append(s.pendingAsync, b)
	}
	s.c.batchesAsync += len(s.pendingAsync)
	return bounds, nil
}

// ackedPhase generates walSoakAckedBatches batches and applies them to db
// from walSoakWriters concurrent goroutines with explicit durability, then
// mirrors them into the replica. Batches use disjoint fresh ids, so they
// commute — the replica can apply them in any order and still answer
// identically. A third of the batches carry churn (delete + reinsert of
// their own first segment) so replay exercises the delete path without
// changing the final state.
func (s *crashSoak) ackedPhase(db *engine) error {
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
func (s *crashSoak) reconcileAsync(db *engine) (int, error) {
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
	for b, batch := range s.pendingAsync {
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
	fullBatch := make([]bool, len(s.pendingAsync))
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

// tearLogs is the log soaks' adversary: each log independently torn past
// its durable boundary.
func (s *crashSoak) tearLogs(bounds []int64) error {
	tornAny := false
	for i := 0; i < s.units; i++ {
		torn, err := tearWALTail(s.lay.log(i), bounds[i], s.wrand)
		if err != nil {
			return fmt.Errorf("tear%s: %w", where(i, s.units), err)
		}
		tornAny = tornAny || torn
	}
	if tornAny {
		s.c.tears++
	}
	return nil
}

// tearWALTail damages the crash-exposed region of the log — the bytes
// past the last completed fsync. Three moves, chosen by the schedule:
// truncate into the region (a torn append: the OS persisted a prefix of
// a record), truncate deeper (a group commit that died after its first
// record hit the platter), or flip a byte mid-region (a sector that
// persisted garbage). About a quarter of cycles leave the tail intact,
// covering the every-byte-made-it crash. Acknowledged bytes are never
// touched: a completed fsync means they survive a real crash.
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
		cut := int64(1 + r.Intn(int(min(64, exposed))))
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

// TestSoakReports runs every crash soak. The four seed-1 runs reproduce
// results/soak_seed1.txt line for line: a soak is deterministic for its
// seed, so any difference is a change in what the crash/recovery cycle
// does (only the chaos soak's scrub page count varies from run to run and
// is masked). Every run must lose no acknowledged batch, answer nothing
// differently from the replica, keep the log under the checkpoint cap,
// type every fault-path error, find no corruption in clean data and heal
// every degradation; the short runs add their own checks.
func TestSoakReports(t *testing.T) {
	raw, err := os.ReadFile("results/soak_seed1.txt")
	if err != nil {
		t.Fatal(err)
	}
	pinned := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	scrubPages := regexp.MustCompile(`scrub passes \([0-9]+ pages`)
	mask := func(line string) string { return scrubPages.ReplaceAllString(line, "scrub passes (N pages") }

	shortCycles := 40
	if testing.Short() {
		shortCycles = 10
	}
	rows := []struct {
		name   string
		soak   func(dir string) *crashSoak
		pinned int // 1-based line of results/soak_seed1.txt; 0: none
		check  func(t *testing.T, c soakCounts)
	}{
		{name: "faults", pinned: 1, soak: func(dir string) *crashSoak {
			return faultSoak(dir, 1, 100, 32, soakFaultPlan)
		}},
		{name: "wal", pinned: 2, soak: func(dir string) *crashSoak {
			return logSoak(dir, 1, 100, 32, 1)
		}},
		{name: "wal-4-shards", pinned: 3, soak: func(dir string) *crashSoak {
			return logSoak(dir, 1, 100, 32, 4)
		}},
		{name: "chaos", pinned: 4, soak: func(dir string) *crashSoak {
			return chaosSoak(dir, 1, 60)
		}},
		{
			// Every cycle ends in a clean recovery or a detected
			// corruption, and the fault mix leaves recovery to test.
			name: "faults-short",
			soak: func(dir string) *crashSoak { return faultSoak(dir, 7, shortCycles, 24, soakFaultPlan) },
			check: func(t *testing.T, c soakCounts) {
				if c.cleanRecoveries+c.corruptions != c.cycles {
					t.Error("a cycle ended in neither a clean recovery nor a detected corruption")
				}
				if c.cleanRecoveries == 0 {
					t.Error("never recovered cleanly: the fault mix is too hot to test recovery")
				}
			},
		},
		{
			// The control: with an empty plan every cycle commits and
			// recovers cleanly.
			name: "faults-off",
			soak: func(dir string) *crashSoak { return faultSoak(dir, 3, 8, 16, fault.Plan{}) },
			check: func(t *testing.T, c soakCounts) {
				if c.corruptions != 0 || c.committed != c.cycles || c.cleanRecoveries != c.cycles {
					t.Error("a fault-free soak must commit and recover every cycle")
				}
			},
		},
		{name: "wal-smoke", soak: func(dir string) *crashSoak { return logSoak(dir, 7, 12, 16, 1) }, check: exercised},
		{name: "wal-3-shards-smoke", soak: func(dir string) *crashSoak { return logSoak(dir, 7, 8, 16, 3) }, check: exercised},
		{
			name: "chaos-short",
			soak: func(dir string) *crashSoak { return chaosSoak(dir, 1, 15) },
			check: func(t *testing.T, c soakCounts) {
				if c.diskFullEpisodes == 0 || c.transientFaults == 0 || c.degradations == 0 {
					t.Error("the fault schedule did not run")
				}
				if c.autoCheckpoints == 0 {
					t.Error("the maintenance loop took no auto-checkpoints")
				}
				if c.scrubPasses == 0 {
					t.Error("no scrub pass completed")
				}
			},
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			s := row.soak(t.TempDir())
			c, err := s.run()
			line := s.line(c)
			if err != nil {
				t.Fatalf("soak harness: %v (report: %s)", err, line)
			}
			t.Log(line)
			if c.cycles != s.cycles {
				t.Errorf("ran %d cycles, want %d", c.cycles, s.cycles)
			}
			if c.lostAcked != 0 || c.wrongAnswers != 0 || c.walBoundViolations != 0 ||
				c.untypedWriteErrors != 0 || c.scrubCorruptions != 0 || c.heals < c.degradations {
				t.Errorf("invariant violation: %d lost acked, %d wrong answers, %d wal bound violations, %d untyped errors, %d scrub corruptions, %d/%d episodes healed",
					c.lostAcked, c.wrongAnswers, c.walBoundViolations,
					c.untypedWriteErrors, c.scrubCorruptions, c.heals, c.degradations)
			}
			if row.pinned > 0 {
				if want := mask(pinned[row.pinned-1]); mask(line) != want {
					t.Errorf("report differs from results/soak_seed1.txt line %d:\n  pinned: %s\n  got:    %s\nif the change is intended, re-record the line deliberately",
						row.pinned, want, mask(line))
				}
			}
			if row.check != nil {
				row.check(t, c)
			}
		})
	}
}

// exercised is the log soaks' smoke check: logs were torn and answers
// compared.
func exercised(t *testing.T, c soakCounts) {
	if c.tears == 0 || c.queriesCompared == 0 {
		t.Error("the soak exercised nothing")
	}
}

// isTypedCorruption reports whether a reopen failure is one of the
// typed corruption errors recovery is allowed to return.
func isTypedCorruption(err error) bool {
	return errors.Is(err, ErrCorrupt) ||
		errors.Is(err, pager.ErrCorruptPage) ||
		errors.Is(err, pager.ErrCorruptHeader)
}

// openFaulted is the recovering open of s for the one-unit database at
// path, with a fault.Store interposed between the tree and its
// verified file, scripted with plan (nil: armed by hand). Verification
// reads the file directly, so the faults bite only once the database is
// in use.
func openFaulted(path string, s recoverSpec, plan *fault.Plan) (*DB, *fault.Store, error) {
	s.lay, s.units = singleLayout(path), 1
	var faults *fault.Store
	s.wrapStore = func(_ int, f *pager.FileStore) pager.Store {
		faults = fault.NewStore(f)
		faults.Script(plan)
		return faults
	}
	e, err := recoverEngine(s)
	if err != nil {
		return nil, nil, err
	}
	return &DB{e}, faults, nil
}

// createFiles replaces the files under lay with a fresh database of units
// holding segs in order, checkpointed, so the next recovering open
// replays nothing; logged arms a log per unit.
func createFiles(lay layout, units int, logged bool, bufferPages int, segs []soakSeg) error {
	for i := 0; i < units; i++ {
		for _, p := range []string{lay.page(i), lay.log(i)} {
			if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
	}
	db, err := createEngine(Options{BufferPages: bufferPages}, units, lay, logged)
	if err != nil {
		return err
	}
	for _, s := range segs {
		if err := db.Insert(s.id, s.seg); err != nil {
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

// genSoakBatch produces the next deterministic batch of motion segments
// in a [0,100]^2 space over t in [0,200].
func genSoakBatch(r *rand.Rand, n int, nextID *ObjectID) []soakSeg {
	batch := make([]soakSeg, n)
	for i := range batch {
		id := *nextID
		*nextID++
		t0 := r.Float64() * 200
		from := []float64{r.Float64() * 100, r.Float64() * 100}
		to := []float64{from[0] + r.Float64()*10 - 5, from[1] + r.Float64()*10 - 5}
		batch[i] = soakSeg{
			id: id,
			seg: Segment{
				T0: t0, T1: t0 + r.Float64()*5,
				From: from, To: to,
			},
		}
	}
	return batch
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

func fileSize(path string) (int64, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// compareAnswers runs the four query types against the recovered
// database and the replica and counts mismatches. Both indexes were
// built by the same insert sequence (per shard, for sharded backends),
// so answers — including order-sensitive KNN ties — must be
// bit-identical.
func compareAnswers(got, want Database, r *rand.Rand) (wrong, compared int, err error) {
	randRect := func() Rect {
		x, y := r.Float64()*90, r.Float64()*90
		return Rect{Min: []float64{x, y}, Max: []float64{x + 5 + r.Float64()*20, y + 5 + r.Float64()*20}}
	}
	randT := func() (float64, float64) {
		t0 := r.Float64() * 190
		return t0, t0 + 1 + r.Float64()*20
	}

	for i := 0; i < 3; i++ { // Snapshot
		view := randRect()
		t0, t1 := randT()
		a, err := got.Snapshot(view, t0, t1)
		if err != nil {
			return wrong, compared, err
		}
		b, err := want.Snapshot(view, t0, t1)
		if err != nil {
			return wrong, compared, err
		}
		compared++
		if !resultsEqual(a, b) {
			wrong++
		}
	}

	for i := 0; i < 2; i++ { // KNN
		p := []float64{r.Float64() * 100, r.Float64() * 100}
		t := r.Float64() * 200
		a, err := got.KNN(p, t, 5)
		if err != nil {
			return wrong, compared, err
		}
		b, err := want.KNN(p, t, 5)
		if err != nil {
			return wrong, compared, err
		}
		compared++
		if !reflect.DeepEqual(a, b) {
			wrong++
		}
	}

	{ // Predictive (PDQ)
		v1, v2 := randRect(), randRect()
		wps := []Waypoint{{T: 0, View: v1}, {T: 200, View: v2}}
		a, err := fetchPDQ(got, wps)
		if err != nil {
			return wrong, compared, err
		}
		b, err := fetchPDQ(want, wps)
		if err != nil {
			return wrong, compared, err
		}
		compared++
		if !resultsEqual(a, b) {
			wrong++
		}
	}

	{ // Non-predictive (NPDQ), two frames sharing session state
		v1 := randRect()
		v2 := Rect{
			Min: []float64{v1.Min[0] + 2, v1.Min[1] + 2},
			Max: []float64{v1.Max[0] + 2, v1.Max[1] + 2},
		}
		t0, t1 := randT()
		sa := got.NonPredictive(NonPredictiveOptions{})
		sb := want.NonPredictive(NonPredictiveOptions{})
		for _, fr := range []struct {
			v      Rect
			lo, hi float64
		}{{v1, t0, t1}, {v2, t1, t1 + 10}} {
			a, err := sa.Snapshot(fr.v, fr.lo, fr.hi)
			if err != nil {
				return wrong, compared, err
			}
			b, err := sb.Snapshot(fr.v, fr.lo, fr.hi)
			if err != nil {
				return wrong, compared, err
			}
			compared++
			if !resultsEqual(a, b) {
				wrong++
			}
		}
	}
	return wrong, compared, nil
}

func fetchPDQ(db Database, wps []Waypoint) ([]Result, error) {
	s, err := db.Predictive(wps, PredictiveOptions{})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return s.Fetch(0, 200)
}

// resultsEqual compares result sets order-insensitively (sessions may
// deliver in traversal order) but value-exactly.
func resultsEqual(a, b []Result) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(r Result) [3]float64 {
		return [3]float64{float64(r.ID), r.Segment.T0, r.Appear}
	}
	sortResults := func(rs []Result) []Result {
		out := append([]Result(nil), rs...)
		sort.Slice(out, func(i, j int) bool {
			ki, kj := key(out[i]), key(out[j])
			for d := 0; d < 3; d++ {
				if ki[d] != kj[d] {
					return ki[d] < kj[d]
				}
			}
			return false
		})
		return out
	}
	return reflect.DeepEqual(sortResults(a), sortResults(b))
}
