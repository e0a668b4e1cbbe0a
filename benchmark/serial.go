package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dynq"
	"dynq/internal/obs"
)

const (
	batchSize = 256
	pageSize  = 4096
)

// serialSpec describes a workload driven by one goroutine from a seeded
// script: writes and reads alternate and never race, so its counts
// repeat exactly.
type serialSpec struct {
	name     string
	segments int // bulk-loaded base population
	options  func(dir string) dynq.Options
	// A step is batchesBefore write batches, ticks ticks, batchesAfter
	// write batches; every syncEvery steps end with a scripted Sync.
	batchesBefore, ticks, batchesAfter int
	syncEvery                          int
	warmSteps                          int // discarded steps flown during set-up
	// fresh is how many of a batch's updates are new segments from the
	// ordered motion-update stream; the rest are dead-reckoning
	// corrections (a delete and an insert each).
	fresh int
	// stepsPerSecond is this workload's measured pace on the reference
	// sandbox; it turns -seconds into a fixed amount of work.
	stepsPerSecond float64
	crashCheck     bool
}

func (s serialSpec) batchesPerStep() int { return s.batchesBefore + s.batchesAfter }

// stepsPerCycle is how many steps fly every cell of the tick mix once.
func (s serialSpec) stepsPerCycle() int { return combos / s.ticks }

// database is what the harness needs from either engine flavour.
type database interface {
	dynq.Database
	Sync() error
	Len() int
	WALTelemetry(windows []time.Duration) (obs.WALTelemetry, bool)
}

// env is one set-up instance of a serial workload.
type env struct {
	spec   serialSpec
	dir    string
	db     *dynq.DB
	m      *model
	rng    *rand.Rand
	stream []seg
	hash   *scriptHash
	view   *localViewer

	steps, ticks int
	unsynced     int  // updates acknowledged since the last Sync
	lastStep     int  // the step before whose Sync the crash image's log is taken
	crashLog     bool // crash image log captured
	// crashUnsynced is how many acknowledged updates only the log of the
	// crash image holds.
	crashUnsynced int
	heapBase      uint64

	// tw, in a traced run, is a tree the harness builds and updates itself
	// in step with the database, to time the layers below the public API.
	tw *twin
}

func (e *env) close() {
	if e.db != nil {
		e.db.Close()
	}
	if e.tw != nil {
		e.tw.close()
	}
	os.RemoveAll(e.dir)
}

func (e *env) pagePath() string { return filepath.Join(e.dir, "index.pages") }

// setUp generates the population from the seed, opens and bulk-loads the
// database and flies warm-up steps (discarded). Everything in here is
// setup_s, except the forced collection that takes the heap baseline
// before anything is allocated.
// The caller scales the time by the pacer's factor over the warm-up
// steps.
func setUp(spec serialSpec, seed int64, scratch string, totalSteps int, withTwin bool, pace *pacer) (*env, time.Duration, error) {
	heapBase := liveHeap()
	start := time.Now()
	dir, err := os.MkdirTemp(scratch, spec.name+"-")
	if err != nil {
		return nil, 0, err
	}
	e := &env{spec: spec, dir: dir, rng: rand.New(rand.NewSource(seed)), hash: newScriptHash(), heapBase: heapBase}
	base, err := population(spec.segments, 1, 0, seed)
	if err != nil {
		e.close()
		return nil, 0, err
	}
	if spec.fresh > 0 {
		need := (totalSteps + spec.warmSteps) * spec.batchesPerStep() * spec.fresh
		if e.stream, err = orderedStream(need, seed+1); err != nil {
			e.close()
			return nil, 0, err
		}
	}
	e.m = newModel(base)
	e.db, err = dynq.Open(spec.options(dir))
	if err != nil {
		e.close()
		return nil, 0, err
	}
	e.view = &localViewer{db: e.db}
	if err := e.db.BulkLoadUpdates(inserts(e.m.segs)); err != nil {
		e.close()
		return nil, 0, err
	}
	if err := e.sync(nil); err != nil {
		e.close()
		return nil, 0, err
	}
	if withTwin {
		if e.tw, err = newTwin(spec, dir, e.m.segs); err != nil {
			e.close()
			return nil, 0, err
		}
	}
	warm := newRecorder(pace, true)
	warm.beginRound()
	for i := 0; i < spec.warmSteps; i++ {
		if err := e.step(warm); err != nil {
			e.close()
			return nil, 0, err
		}
	}
	if warm.failed > 0 {
		e.close()
		return nil, 0, fmt.Errorf("warm-up: %s", warm.firstWrong)
	}
	return e, time.Since(start), nil
}

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// heapSince is live_heap_mb: what is live now beyond the baseline. The
// caller has dropped the harness's own data (model, update stream,
// recorder) first, so this is the database's memory and not the
// benchmark's.
func heapSince(base uint64) float64 {
	if now := liveHeap(); now > base {
		return float64(now-base) / (1 << 20)
	}
	return 0
}

// nextBatch generates the next write batch and applies it to the model.
func (e *env) nextBatch() []dynq.MotionUpdate {
	ups := make([]dynq.MotionUpdate, 0, batchSize)
	for i := 0; i < e.spec.fresh; i++ {
		s := e.stream[0]
		e.stream = e.stream[1:]
		ups = append(ups, s.insert())
	}
	e.m.apply(ups)
	for len(ups) < batchSize {
		ups = e.m.correct(e.rng, ups)
	}
	e.hash.batch(ups)
	return ups
}

func (e *env) write(rec *recorder) error {
	ups := e.nextBatch()
	start := time.Now()
	err := e.db.ApplyUpdates(context.Background(), ups, dynq.WriteOptions{})
	took := time.Since(start)
	rec.pace.slice()
	at := rec.batch(ups, start, took)
	e.unsynced += len(ups)
	if err != nil || e.tw == nil {
		return err
	}
	below, err := e.tw.replay(ups, rec.tr, at)
	if rec.tr != nil {
		e.tw.selfUs = append(e.tw.selfUs, us(took-below))
	}
	return err
}

// sync is a scripted checkpoint; its time belongs to the write phase.
// After it the page file on disk is exactly the committed state, which is
// the moment to take the page half of the crash image.
func (e *env) sync(rec *recorder) error {
	start := time.Now()
	if err := e.db.Sync(); err != nil {
		return err
	}
	if rec != nil {
		d := time.Since(start)
		rec.sync(start, d)
		rec.busyWrite(d, rec.writeFactor())
	}
	e.hash.sync()
	e.unsynced = 0
	if e.tw != nil {
		if err := e.tw.flush(); err != nil {
			return err
		}
	}
	if e.spec.crashCheck && !e.crashLog {
		return copyFile(e.pagePath(), filepath.Join(e.dir, "crash.pages"))
	}
	return nil
}

func (e *env) step(rec *recorder) error {
	for i := 0; i < e.spec.batchesBefore; i++ {
		if err := e.write(rec); err != nil {
			return err
		}
	}
	for i := 0; i < e.spec.ticks; i++ {
		tk, err := newTick(e.ticks, e.rng)
		if err != nil {
			return err
		}
		e.ticks++
		e.hash.tick(tk)
		before := e.db.CostSnapshot()
		f, err := fly(e.view, tk)
		if err != nil {
			return err
		}
		cost := e.db.CostSnapshot().Sub(before)
		rec.pace.slice()
		rec.flight(e.m, tk, f, cost, e.rng.Intn(framesPerQuery), rec.pace.factor())
	}
	for i := 0; i < e.spec.batchesAfter; i++ {
		if err := e.write(rec); err != nil {
			return err
		}
	}
	e.steps++
	if e.spec.crashCheck && e.steps == e.lastStep {
		// Every batch so far is acknowledged, so its log record is on
		// disk: the log as it stands plus the page file as of the last
		// Sync is what a crash right now would leave behind.
		if err := copyFile(e.pagePath()+".wal", filepath.Join(e.dir, "crash.pages.wal")); err != nil {
			return err
		}
		e.crashLog, e.crashUnsynced = true, e.unsynced
	}
	if e.steps%e.spec.syncEvery == 0 {
		return e.sync(rec)
	}
	return nil
}

func copyFile(from, to string) error {
	src, err := os.Open(from)
	if err != nil {
		return err
	}
	defer src.Close()
	dst, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(dst, src); err != nil {
		dst.Close()
		return err
	}
	return dst.Close()
}

// physicalWrites is the bytes the database pushed to its page store and
// log so far. A bufferless tree writes every node through; a buffered one
// writes on eviction and flush.
func physicalWrites(db database) int64 {
	pages := db.CostSnapshot().PageWrites
	if b := db.BufferStats(); b.Capacity > 0 {
		pages = b.WriteBacks
	}
	var logged int64
	if w, ok := db.WALTelemetry(nil); ok {
		logged = w.AppendedBytes
	}
	return pages*pageSize + logged
}

// storedBytes is what the database occupies at rest after a Sync: its
// page files (or, in memory, its tree nodes) plus the live log.
func storedBytes(db database, pageFiles []string) (int64, error) {
	var total int64
	if len(pageFiles) == 0 {
		st, err := db.Stats()
		if err != nil {
			return 0, err
		}
		total = int64(st.LeafNodes+st.InternalNodes) * pageSize
	}
	for _, p := range pageFiles {
		fi, err := os.Stat(p)
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	if w, ok := db.WALTelemetry(nil); ok {
		total += w.LiveBytes
	}
	return total, nil
}

// runSerial measures one serial workload: five set-ups (median reported,
// last one kept), then rounds×stepsPerRound steps of the seeded script.
func runSerial(spec serialSpec, cfg config) (*outcome, error) {
	rounds, perRound := cfg.size(spec)
	total := rounds * perRound
	pace := newPacer() // before set-up, so its pool is part of the heap baseline
	var e *env
	var setups, rawSetups []float64
	for i := 0; i < cfg.setups; i++ {
		if e != nil {
			e.close()
			e = nil // before the next set-up takes its heap baseline
		}
		var took time.Duration
		var err error
		mark := pace.mark()
		e, took, err = setUp(spec, cfg.seed, cfg.scratch, total, false, pace)
		if err != nil {
			return nil, err
		}
		rawSetups = append(rawSetups, took.Seconds())
		setups = append(setups, took.Seconds()/pace.factorSince(mark))
	}
	defer e.close()
	e.lastStep = e.steps + total

	rec := newRecorder(pace, true)
	written := physicalWrites(e.db)
	began := time.Now()
	for r := 0; r < rounds; r++ {
		runtime.GC()
		rec.beginRound()
		for s := 0; s < perRound; s++ {
			if err := e.step(rec); err != nil {
				return nil, err
			}
		}
	}
	if err := e.db.Sync(); err != nil {
		return nil, err
	}
	measured := time.Since(began)
	written = physicalWrites(e.db) - written

	rec.check(e.db.Len() == e.m.len(), "database holds %d segments, the script leaves %d", e.db.Len(), e.m.len())
	var pageFiles []string
	if spec.options(e.dir).Path != "" {
		pageFiles = []string{e.pagePath()}
	}
	stored, err := storedBytes(e.db, pageFiles)
	if err != nil {
		return nil, err
	}
	out := newOutcome(spec.name, cfg.seed, e.hash.sum(), measured)
	out.finish(rec, setups, rawSetups, written, stored, e.m.len())
	if spec.crashCheck {
		if err := e.reopenAfterCrash(rec, out); err != nil {
			return nil, err
		}
		out.attempted, out.failed, out.firstWrong = rec.attempted, rec.failed, rec.firstWrong
	}
	e.m, e.stream = nil, nil // rec is dead from here on too
	out.metrics["live_heap_mb"] = heapSince(e.heapBase)
	runtime.KeepAlive(pace) // its pool is part of the baseline
	return out, nil
}

// reopenAfterCrash recovers the crash image and checks that every update
// acknowledged before the image was taken is there: the recovered
// database must hold exactly the model's segments as of that moment,
// which is what the model held before the script's last Sync — nothing
// was written after the log was copied.
func (e *env) reopenAfterCrash(rec *recorder, out *outcome) error {
	start := time.Now()
	db, rep, err := dynq.OpenFileRecoverWith(filepath.Join(e.dir, "crash.pages"), dynq.RecoverOptions{})
	if err != nil {
		rec.check(false, "crash image does not reopen: %v", err)
		return nil
	}
	defer db.Close()
	out.recoverTime = time.Since(start)
	out.replayed = rep.WALUpdatesReplayed
	all, err := db.Snapshot(dynq.Rect{Min: []float64{-1e9, -1e9}, Max: []float64{1e9, 1e9}}, -1e9, 1e9)
	if err != nil {
		return err
	}
	missing := e.m.len()
	for _, r := range all {
		if s, ok := e.m.at[segKey{r.ID, r.Segment.T0}]; ok && e.m.segs[s] == segOf(r.ID, r.Segment) {
			missing--
		}
	}
	rec.check(rep.WALUpdatesReplayed > 0, "crash image replayed no log records")
	rec.check(missing == 0 && len(all) == e.m.len(),
		"after crash-reopen %d of %d acknowledged segments are missing (%d recovered)", missing, e.m.len(), len(all))
	return nil
}
