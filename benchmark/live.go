package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"dynq"
	"dynq/internal/obs"
	"dynq/internal/stats"
	"dynq/netq"
)

// live-wire's fixed shape: two shards, one viewer and one feeder
// connection (two generator goroutines on a two-CPU sandbox), and an
// offered write rate of 2000 updates/s, well under the engine's capacity,
// as one 64-update batch every 32 ms.
//
// The feeder only inserts (new segments from a time-ordered update
// stream). A delete that empties a node frees its page while a predictive
// session on another connection may still hold the page's id in its
// queue; the session then fails on the freed page. That is the program's
// to fix; a benchmark runs workloads on which no operation fails.
const (
	liveShards    = 2
	liveBatch     = 64
	liveInterval  = 32 * time.Millisecond
	liveWarmTicks = 6
	// finalTicks fly after the feeder has stopped, with every object
	// compared, so an acknowledged insert that never reached the index is
	// found.
	finalTicks = 4
)

// streamed marks the objects the feeder inserts. While it runs, their
// segments appear under the viewer's queries, so answers are compared on
// the bulk-loaded objects.
func streamed(id uint64) bool { return id >= streamFirstID }

// wire is one set-up instance of live-wire: the sharded database, the
// netq server in front of it and the two client connections.
type wire struct {
	dir  string
	db   *dynq.ShardedDB
	ep   *endpoint
	view *netq.Client
	feed *netq.Client
	m    *model

	viewRng  *rand.Rand
	stream   []seg // what the feeder has yet to insert
	hash     *scriptHash
	ticks    int
	heapBase uint64
	frames   []span  // every frame call of the measured phase
	held     []flown // flown in the current round, not yet verified

	// A traced run keeps the initial population and every batch it sent,
	// to bring twins to the database's state afterwards.
	keep bool
	base []seg
	sent [][]dynq.MotionUpdate
}

func (w *wire) close() {
	if w.view != nil {
		w.view.Close()
	}
	if w.feed != nil {
		w.feed.Close()
	}
	if w.ep != nil {
		w.ep.close()
	}
	if w.db != nil {
		w.db.Close()
	}
	os.RemoveAll(w.dir)
}

func (w *wire) pageFiles() []string {
	var out []string
	for i := 0; i < liveShards; i++ {
		out = append(out, fmt.Sprintf("%s.shard%d", filepath.Join(w.dir, "index.pages"), i))
	}
	return out
}

func setUpWire(cfg config, batches int, keep bool, pace *pacer) (*wire, time.Duration, error) {
	heapBase := liveHeap()
	start := time.Now()
	dir, err := os.MkdirTemp(cfg.scratch, "live-wire-")
	if err != nil {
		return nil, 0, err
	}
	w := &wire{dir: dir, hash: newScriptHash(), keep: keep, viewRng: rand.New(rand.NewSource(cfg.seed)), heapBase: heapBase}
	base, err := population(cfg.scale(paperSegments/5), liveShards, 0, cfg.seed)
	if err != nil {
		w.close()
		return nil, 0, err
	}
	if w.stream, err = orderedStream((batches+liveWarmTicks)*liveBatch, cfg.seed+1); err != nil {
		w.close()
		return nil, 0, err
	}
	if keep {
		w.base = append([]seg(nil), base...)
	}
	w.m = newModel(base)
	fail := func(err error) (*wire, time.Duration, error) {
		w.close()
		return nil, 0, err
	}
	w.db, err = dynq.OpenSharded(dynq.ShardOptions{
		Options: dynq.Options{DualTimeAxes: true, Path: filepath.Join(dir, "index.pages")},
		Shards:  liveShards,
		WAL:     true,
	})
	if err != nil {
		return fail(err)
	}
	if err := w.db.BulkLoadUpdates(inserts(w.m.segs)); err != nil {
		return fail(err)
	}
	if err := w.db.Sync(); err != nil {
		return fail(err)
	}
	if w.ep, err = serve(w.db); err != nil {
		return fail(err)
	}
	if w.view, err = w.ep.dial(); err != nil {
		return fail(err)
	}
	if w.feed, err = w.ep.dial(); err != nil {
		return fail(err)
	}
	warm := newRecorder(pace, false)
	warm.beginRound()
	for i := 0; i < liveWarmTicks; i++ {
		if err := w.tick(warm, false); err != nil {
			return fail(err)
		}
		if err := w.feed.ApplyUpdates(w.nextBatch()); err != nil {
			return fail(err)
		}
	}
	if warm.failed > 0 {
		return fail(fmt.Errorf("warm-up: %s", warm.firstWrong))
	}
	return w, time.Since(start), nil
}

// nextBatch is the feeder's next write: the next 64 segments of the
// update stream, already applied to the model.
func (w *wire) nextBatch() []dynq.MotionUpdate {
	ups := inserts(w.stream[:liveBatch])
	w.stream = w.stream[liveBatch:]
	w.m.apply(ups)
	w.hash.batch(ups)
	if w.keep {
		w.sent = append(w.sent, ups)
	}
	return ups
}

// flown is a tick whose answers wait to be verified.
type flown struct {
	tk     *tick
	f      *flight
	cost   stats.Snapshot
	brute  int
	factor float64
}

// tick flies the viewer's next fly-through over its connection. With
// hold, recording and verifying its answers is left to settle: inside a
// measured round the harness's brute-force checks would take the one CPU
// from the server and the feeder, and the feeder's latencies would
// include them.
func (w *wire) tick(rec *recorder, hold bool) error {
	tk, err := newTick(w.ticks, w.viewRng)
	if err != nil {
		return err
	}
	w.ticks++
	w.hash.tick(tk)
	before := w.db.CostSnapshot()
	f, err := fly(wireViewer{w.view}, tk)
	if err != nil {
		return err
	}
	cost := w.db.CostSnapshot().Sub(before)
	rec.pace.slice()
	w.held = append(w.held, flown{tk, f, cost, w.viewRng.Intn(framesPerQuery), rec.pace.factor()})
	if !hold {
		w.settle(rec)
	}
	return nil
}

// settle records and verifies the held ticks. Between their flight and
// now the feeder only inserted streamed objects, which the comparison
// leaves out while it runs, so the verdict is the same as on the spot.
func (w *wire) settle(rec *recorder) {
	for _, h := range w.held {
		rec.flight(w.m, h.tk, h.f, h.cost, h.brute, h.factor)
		w.frames = append(w.frames, h.f.spans()...)
	}
	w.held = nil
}

// span is a closed time interval of one call, kept to tell which frames
// ran while a write batch was in flight.
type span struct{ from, to time.Time }

func (f *flight) spans() []span {
	var out []span
	for s := range f.start {
		for i, at := range f.start[s] {
			out = append(out, span{at, at.Add(f.lat[s][i])})
		}
	}
	return out
}

// offer sends batches on a fixed schedule (open loop): batch k is due at
// start+k·interval whatever happened to batch k-1, and its latency runs
// from when it was due, so a stall is charged to every batch it delays.
func offer(apply func([]dynq.MotionUpdate) error, batches [][]dynq.MotionUpdate, start time.Time, interval time.Duration) (*feedRecord, error) {
	rec := &feedRecord{}
	for k, ups := range batches {
		due := start.Add(time.Duration(k) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		sent := time.Now()
		err := apply(ups)
		acked := time.Now()
		if err != nil {
			return nil, err
		}
		rec.late = append(rec.late, ms(sent.Sub(due)))
		rec.lat = append(rec.lat, acked.Sub(due))
		rec.inFlight = append(rec.inFlight, span{sent, acked})
		rec.last = acked
	}
	return rec, nil
}

// feedRecord is what the feeder observed in one round.
type feedRecord struct {
	late     []float64 // ms the generator sent after the batch was due
	lat      []time.Duration
	inFlight []span
	last     time.Time
}

// round runs one measured round: the feeder offers its batches while the
// viewer flies ticks flat out (closed loop) until the feeder is done.
func (w *wire) round(rec *recorder, batches int) (*feedRecord, error) {
	plan := make([][]dynq.MotionUpdate, batches)
	for i := range plan {
		plan[i] = w.nextBatch()
	}
	var (
		wg      sync.WaitGroup
		fr      *feedRecord
		feedErr error
		done    = make(chan struct{})
	)
	start := time.Now().Add(liveInterval)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		fr, feedErr = offer(func(ups []dynq.MotionUpdate) error {
			return w.feed.ApplyUpdatesCtx(context.Background(), ups, dynq.DurabilityGroupCommit)
		}, plan, start, liveInterval)
	}()
	var viewErr error
	for viewErr == nil {
		select {
		case <-done:
		default:
			viewErr = w.tick(rec, true)
			continue
		}
		break
	}
	wg.Wait()
	w.settle(rec)
	if feedErr != nil {
		return nil, feedErr
	}
	if viewErr != nil {
		return nil, viewErr
	}
	for i, ups := range plan {
		rec.batch(ups, start.Add(time.Duration(i)*liveInterval), fr.lat[i])
	}
	// Delivered rate of the fixed offered rate: what was acknowledged over
	// the time from the first due batch to the last acknowledgement.
	busy := len(rec.rounds) - 1
	rec.raw.busy[busy].write, rec.ref.busy[busy].write = fr.last.Sub(start), fr.last.Sub(start)
	return fr, nil
}

// runLive measures live-wire. Unlike the serial workloads its length is
// set by the feeder's schedule, so the viewer's frame count depends on
// how fast frames are; counts per frame vary by about a percent.
func runLive(cfg config) (*outcome, error) {
	out, run, err := measureLive(cfg, false)
	if err != nil {
		return nil, err
	}
	w := run.w
	defer w.close()
	w.m, w.stream, w.frames = nil, nil, nil
	pace := run.rec.pace
	run = nil
	out.metrics["live_heap_mb"] = heapSince(w.heapBase)
	runtime.KeepAlive(pace) // its pool is part of the baseline
	return out, nil
}

// liveRun is what the traced run needs beyond the outcome; its caller
// closes w.
type liveRun struct {
	w         *wire
	rec       *recorder
	feeds     []*feedRecord
	tr        *tracer // spans of the last round, when traced
	walBefore obs.WALTelemetry
}

// measureLive runs the rounds of live-wire; traced records spans in the
// last round and keeps what twins need.
func measureLive(cfg config, traced bool) (*outcome, *liveRun, error) {
	perRound := int(float64(cfg.seconds) * float64(time.Second) / float64(liveInterval) / float64(cfg.rounds))
	if cfg.smoke {
		perRound = 6
	}
	if perRound < 1 {
		perRound = 1
	}
	var pace *pacer // a traced run reports raw timings
	if !traced {
		pace = newPacer() // before set-up, so its pool is part of the heap baseline
	}
	var w *wire
	var setups, rawSetups []float64
	for i := 0; i < cfg.setups; i++ {
		if w != nil {
			w.close()
			w = nil // before the next set-up takes its heap baseline
		}
		var took time.Duration
		var err error
		mark := pace.mark()
		w, took, err = setUpWire(cfg, cfg.rounds*perRound, traced, pace)
		if err != nil {
			return nil, nil, err
		}
		rawSetups = append(rawSetups, took.Seconds())
		setups = append(setups, took.Seconds()/pace.factorSince(mark))
	}
	w.m.volatile = streamed
	w.frames = nil

	rec := newRecorder(pace, false) // the feeder's schedule, the commit timer and the disk set its latencies, not the CPU
	run := &liveRun{w: w, rec: rec}
	run.walBefore, _ = w.db.WALTelemetry(nil)
	written := physicalWrites(w.db)
	began := time.Now()
	for r := 0; r < cfg.rounds; r++ {
		runtime.GC()
		rec.beginRound()
		if traced && r == cfg.rounds-1 {
			run.tr = newTracer()
			rec.tr = run.tr
		}
		fr, err := w.round(rec, perRound)
		if err != nil {
			w.close()
			return nil, nil, err
		}
		run.feeds = append(run.feeds, fr)
		// The scripted checkpoint, with nothing in flight.
		at := time.Now()
		if err := w.db.Sync(); err != nil {
			w.close()
			return nil, nil, err
		}
		rec.sync(at, time.Since(at))
	}
	rec.tr = nil
	measured := time.Since(began)
	written = physicalWrites(w.db) - written

	rec.check(w.db.Len() == w.m.len(), "database holds %d segments, the script leaves %d", w.db.Len(), w.m.len())
	stored, err := storedBytes(w.db, w.pageFiles())
	if err != nil {
		w.close()
		return nil, nil, err
	}
	out := newOutcome("live-wire", cfg.seed, 0, measured)
	out.finish(rec, setups, rawSetups, written, stored, w.m.len())
	var late []float64
	for _, fr := range run.feeds {
		late = append(late, fr.late...)
	}
	out.notes = append(out.notes, fmt.Sprintf("feeder: %d batches, sent a median of %.3f ms and at the 99th percentile %.3f ms after they were due",
		len(late), median(late), quantile(late, 0.99)))

	// With the feeder stopped every object is stable again: a few more
	// ticks, compared in full, find any acknowledged insert that is
	// missing from the index.
	w.m.volatile = nil
	after := newRecorder(nil, false)
	after.beginRound()
	for i := 0; i < finalTicks; i++ {
		if err := w.tick(after, false); err != nil {
			w.close()
			return nil, nil, err
		}
	}
	rec.check(after.failed == 0, "after the feeder stopped: %s", after.firstWrong)
	out.attempted, out.failed, out.firstWrong = rec.attempted, rec.failed, rec.firstWrong
	out.scriptHash = w.hash.sum()
	return out, run, nil
}
