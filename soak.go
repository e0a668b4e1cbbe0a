package dynq

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"

	"dynq/internal/pager"
)

// SoakOptions configure FaultSoak, the crash/reopen loop behind
// dqbench -faults.
type SoakOptions struct {
	// Cycles is the number of crash/reopen iterations (default 50).
	Cycles int
	// Seed drives the workload, the fault schedule, and the query mix;
	// the same seed replays the same soak (default 1).
	Seed int64
	// Batch is the number of segments inserted per cycle (default 32).
	Batch int
	// Plan is the fault schedule for the write phase; nil uses
	// DefaultSoakPlan. Plan.Seed is re-derived per cycle from Seed.
	Plan *pager.FaultPlan
	// Dir is the working directory (default: a fresh temp dir, removed
	// afterwards).
	Dir string
	// Log, when set, receives one progress line per 25 cycles.
	Log func(format string, args ...any)
}

const (
	// faultSoakBufferPages is the write-phase buffer capacity. A buffer
	// makes crash points interesting: dirty pages reach disk in a burst at
	// Sync, which is where torn writes bite.
	faultSoakBufferPages = 256
	// faultSoakMaxSegments rotates to a fresh file once the committed set
	// grows past it, bounding per-cycle cost.
	faultSoakMaxSegments = 4096
)

// DefaultSoakPlan is the fault mix the soak uses when none is given:
// occasional torn writes and failed syncs (the crash-consistency
// killers), rarer plain I/O errors, and a trickle of bit rot.
func DefaultSoakPlan() pager.FaultPlan {
	return pager.FaultPlan{
		ReadErr:   0.01,
		WriteErr:  0.02,
		SyncErr:   0.05,
		TornWrite: 0.05,
		BitFlip:   0.01,
	}
}

// SoakReport summarizes a FaultSoak run. The invariant the soak asserts
// is WrongAnswers == 0: every cycle either recovers the exact committed
// state (verified against a never-crashed in-memory replica across all
// four query types) or reports a typed corruption error and is rebuilt.
type SoakReport struct {
	Cycles             int // crash/reopen iterations executed
	CommitsSucceeded   int // cycles whose batch committed durably
	InsertFailures     int // cycles aborted by an injected insert fault
	SyncFailures       int // cycles whose Sync failed (state rolls back)
	CleanRecoveries    int // reopens that verified and matched committed state
	DetectedCorruption int // reopens that reported a typed corruption error
	WrongAnswers       int // query answers that differed from the replica (MUST be 0)
	QueriesCompared    int // individual query comparisons performed
	PagesVerified      int // pages checksum+epoch-verified across recoveries
	Rebuilds           int // files rebuilt from committed state after corruption
	Rotations          int // fresh-file rotations once the committed set outgrows the cap
}

func (r SoakReport) String() string {
	return fmt.Sprintf(
		"%d cycles: %d committed, %d insert faults, %d sync faults | %d clean recoveries (%d pages verified, %d queries compared), %d detected corruptions (%d rebuilds), %d rotations | %d wrong answers",
		r.Cycles, r.CommitsSucceeded, r.InsertFailures, r.SyncFailures,
		r.CleanRecoveries, r.PagesVerified, r.QueriesCompared,
		r.DetectedCorruption, r.Rebuilds, r.Rotations, r.WrongAnswers)
}

// soakSeg is one committed (object, segment) pair, replayed in order to
// rebuild state deterministically.
type soakSeg struct {
	id  ObjectID
	seg Segment
}

// FaultSoak runs crash/reopen cycles against a file-backed database
// under an injected-fault plan: each cycle inserts a batch, attempts a
// Sync, hard-crashes the file (no commit), reopens with full recovery,
// and — when recovery reports a clean state — verifies Snapshot, KNN,
// predictive, and non-predictive answers against an in-memory replica
// that never crashed. It returns an error only for harness failures
// (untyped reopen errors, query infrastructure errors); injected faults
// and detected corruption are normal outcomes counted in the report.
func FaultSoak(opts SoakOptions) (SoakReport, error) {
	if opts.Cycles <= 0 {
		opts.Cycles = 50
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Batch <= 0 {
		opts.Batch = 32
	}
	plan := DefaultSoakPlan()
	if opts.Plan != nil {
		plan = *opts.Plan
	}
	dir := opts.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "dynq-soak")
		if err != nil {
			return SoakReport{}, err
		}
		defer os.RemoveAll(dir)
	}
	path := filepath.Join(dir, "soak.dynq")

	var rep SoakReport
	var committed []soakSeg
	replica, err := Open(Options{})
	if err != nil {
		return rep, err
	}
	defer func() { replica.Close() }()
	if err := rebuildFile(path, committed, faultSoakBufferPages); err != nil {
		return rep, err
	}

	wrand := rand.New(rand.NewSource(opts.Seed))
	var nextID ObjectID
	for cycle := 0; cycle < opts.Cycles; cycle++ {
		rep.Cycles++
		batch := genSoakBatch(wrand, opts.Batch, &nextID)
		cyclePlan := plan
		cyclePlan.Seed = uint64(opts.Seed)*0x9E3779B97F4A7C15 + uint64(cycle)

		// Write phase under faults, ending in a hard crash.
		db, fs, _, err := openFaulted(path, &cyclePlan, faultSoakBufferPages)
		if err != nil {
			return rep, fmt.Errorf("cycle %d: fault-free reopen for writes failed: %w", cycle, err)
		}
		ok := true
		for _, s := range batch {
			if err := db.Insert(s.id, s.seg); err != nil {
				rep.InsertFailures++
				ok = false
				break
			}
		}
		if ok {
			if err := db.Sync(); err != nil {
				rep.SyncFailures++
				ok = false
			}
		}
		if err := fs.Crash(); err != nil {
			return rep, fmt.Errorf("cycle %d: crash: %w", cycle, err)
		}
		if ok {
			// The Sync committed: the batch is durable by contract.
			committed = append(committed, batch...)
			for _, s := range batch {
				if err := replica.Insert(s.id, s.seg); err != nil {
					return rep, fmt.Errorf("cycle %d: replica insert: %w", cycle, err)
				}
			}
			rep.CommitsSucceeded++
		}

		// Recovery phase, fault-free.
		rdb, rrep, err := OpenFileRecover(path)
		if err != nil {
			if !isTypedCorruption(err) {
				return rep, fmt.Errorf("cycle %d: reopen failed with untyped error: %w", cycle, err)
			}
			rep.DetectedCorruption++
			rep.Rebuilds++
			if err := rebuildFile(path, committed, faultSoakBufferPages); err != nil {
				return rep, fmt.Errorf("cycle %d: rebuild after corruption: %w", cycle, err)
			}
		} else {
			rep.CleanRecoveries++
			rep.PagesVerified += rrep.PagesChecked
			qrand := rand.New(rand.NewSource(opts.Seed ^ (int64(cycle)+1)*0x5DEECE66D))
			wrong, compared, err := compareAnswers(rdb, replica, qrand)
			if cerr := rdb.Close(); cerr != nil && err == nil {
				err = cerr
			}
			if err != nil {
				return rep, fmt.Errorf("cycle %d: query comparison: %w", cycle, err)
			}
			rep.WrongAnswers += wrong
			rep.QueriesCompared += compared
		}

		if len(committed) >= faultSoakMaxSegments {
			committed = committed[:0]
			replica.Close()
			if replica, err = Open(Options{}); err != nil {
				return rep, err
			}
			if err := rebuildFile(path, committed, faultSoakBufferPages); err != nil {
				return rep, err
			}
			rep.Rotations++
		}
		if opts.Log != nil && (cycle+1)%25 == 0 {
			opts.Log("soak cycle %d/%d: %s", cycle+1, opts.Cycles, rep)
		}
	}
	return rep, nil
}

// isTypedCorruption reports whether a reopen failure is one of the
// typed corruption errors recovery is allowed to return.
func isTypedCorruption(err error) bool {
	return errors.Is(err, ErrCorrupt) ||
		errors.Is(err, pager.ErrCorruptPage) ||
		errors.Is(err, pager.ErrCorruptHeader)
}

// openFaulted reopens the committed file with a scripted FaultStore
// interposed between the tree and the FileStore, so the write phase sees
// injected faults while the file beneath stays a real FileStore the
// harness can Crash. A cycle's writes stop at their first failure, so
// they never reach the degrade threshold.
func openFaulted(path string, plan *pager.FaultPlan, bufferPages int) (*DB, *pager.FileStore, *pager.FaultStore, error) {
	return recoverFaulted(recoverSpec{
		lay:         singleLayout(path),
		units:       1,
		bufferPages: bufferPages,
	}, plan)
}

// recoverFaulted runs the recovering open with the soaks' per-unit store
// hook installed, returning the file and the interposer next to the
// database. Verification reads the file directly, so the script only
// bites once the database is in use.
func recoverFaulted(s recoverSpec, plan *pager.FaultPlan) (*DB, *pager.FileStore, *pager.FaultStore, error) {
	var fs *pager.FileStore
	var faults *pager.FaultStore
	s.wrapStore = func(_ int, f *pager.FileStore) pager.Store {
		fs, faults = f, pager.NewFaultStore(f)
		faults.Script(plan)
		return faults
	}
	e, err := recoverEngine(s)
	if err != nil {
		return nil, nil, nil, err
	}
	return &DB{e}, fs, faults, nil
}

// rebuildFile recreates path from the committed sequence with the same
// insert order the replica saw, so both trees are structurally
// identical.
func rebuildFile(path string, committed []soakSeg, bufferPages int) error {
	db, err := Open(Options{Path: path, BufferPages: bufferPages})
	if err != nil {
		return err
	}
	for _, s := range committed {
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
