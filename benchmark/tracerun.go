package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"dynq"
	"dynq/internal/pager"
	"dynq/internal/rtree"
	"dynq/internal/shard"
)

// probeTicks is how many fresh ticks (one full cycle of the mix) the
// ladder and the engine probes are issued over.
func (c config) probeTicks() int {
	if c.smoke {
		return 2
	}
	return combos
}

// traceSerial is the traced run of a serial workload: one set-up with a
// twin tree, two rounds' worth of steps with spans recorded in half of
// them, then the
// ladder and the layer probes on the idle database, and the span file.
func traceSerial(spec serialSpec, cfg config) (*outcome, error) {
	_, perRound := cfg.size(spec)
	e, _, err := setUp(spec, cfg.seed, cfg.scratch, 2*perRound, true, nil)
	if err != nil {
		return nil, err
	}
	defer e.close()
	e.lastStep = e.steps + 2*perRound

	rec := newRecorder(nil, false)
	walBefore, _ := e.db.WALTelemetry(nil)
	tr := newTracer()
	began := time.Now()
	// Spans are recorded in every other cycle of the tick mix, so traced
	// and untraced frames see the same mix on the same (growing) tree.
	cycle := min(spec.stepsPerCycle(), perRound)
	for c := 0; c < 2*perRound/cycle; c++ {
		runtime.GC()
		rec.beginRound()
		rec.tr = nil
		if c%2 == 1 {
			rec.tr = tr
		}
		for s := 0; s < cycle; s++ {
			if err := e.step(rec); err != nil {
				return nil, err
			}
		}
	}
	rec.tr = nil
	if err := e.sync(rec); err != nil {
		return nil, err
	}
	measured := time.Since(began)
	rec.check(e.db.Len() == e.m.len(), "database holds %d segments, the script leaves %d", e.db.Len(), e.m.len())

	l := newLedger()
	l["benchmark.trace_overhead_share"] = traceOverhead(rec, tr, func(round int) bool { return round%2 == 1 })
	if err := runStats(l, rec, e.db, walBefore); err != nil {
		return nil, err
	}
	tw := e.tw
	l["dynq.apply_self_us"] = median(tw.selfUs)
	l["rtree.bulkload_s"] = tw.bulkload.Seconds()
	l["pager.flush_ms"] = median(tw.flushMs)
	l["shard.place_skew"] = placeSkew(e.m.segs)

	ticks, err := e.freshTicks(cfg.probeTicks())
	if err != nil {
		return nil, err
	}
	p := probe{db: e.db, tree: tw.tree, store: tw.store, tr: tr}
	diverged, err := p.ladder(l, ticks)
	if err != nil {
		return nil, err
	}
	rec.check(diverged == 0, "the twin tree and the database disagree on %d probe frames", diverged)
	// The wire and the shard layer are not on a serial workload's path;
	// they are probed over its database and its segments.
	ep, err := serve(e.db)
	if err != nil {
		return nil, err
	}
	defer ep.close()
	client, err := ep.dial()
	if err != nil {
		return nil, err
	}
	defer client.Close()
	if err := wireCosts(l, client, e.db, ticks); err != nil {
		return nil, err
	}
	engine, _, err := newEngine(e.dir, e.m.segs)
	if err != nil {
		return nil, err
	}
	defer engine.Close()
	if err := shardCosts(l, engine, tw.tree, ticks); err != nil {
		return nil, err
	}
	if err := coreCosts(l, tw.tree, ticks); err != nil {
		return nil, err
	}
	if err := nodeCosts(l, tw.tree, ticks); err != nil {
		return nil, err
	}
	if err := updateCosts(l, tw.tree, &tw.cost, e.m.segs); err != nil {
		return nil, err
	}
	if err := walCosts(l, e.dir, cfg.scale(256)); err != nil {
		return nil, err
	}
	// The pager is probed where it has a file and a buffer: the twin's
	// own, or for an in-memory workload a twin in fly-disk's configuration.
	paged := tw
	if _, file := tw.store.(*pager.FileStore); !file {
		if paged, err = newTwin(serialSpecs(cfg)["fly-disk"], filepath.Join(e.dir, "paged"), e.m.segs); err != nil {
			return nil, err
		}
		defer paged.close()
		// Nothing was flushed during the run; dirty some pages and flush.
		if err := updateCosts(map[string]float64{}, paged.tree, &paged.cost, e.m.segs); err != nil {
			return nil, err
		}
		if err := paged.flush(); err != nil {
			return nil, err
		}
		l["pager.flush_ms"] = median(paged.flushMs)
	}
	if err := poolCosts(l, paged.tree, paged.store); err != nil {
		return nil, err
	}

	out := newOutcome(spec.name, cfg.seed, e.hash.sum(), measured)
	if spec.crashCheck {
		if err := e.reopenAfterCrash(rec, out); err != nil {
			return nil, err
		}
		l["dynq.recover_ms"] = ms(out.recoverTime)
		l["dynq.recovered_share"] = ratio(float64(out.replayed), float64(e.crashUnsynced))
	} else if err := recoverCost(l, e.dir, e.m.segs); err != nil {
		return nil, err
	}
	path, err := tr.write(spec.name)
	if err != nil {
		return nil, err
	}
	fmt.Printf("spans: %d written to %s; most self time: %s\n", len(tr.spans), path, dominant(tr.spans))
	out.layers = l
	out.attempted, out.failed, out.firstWrong = rec.attempted, rec.failed, rec.firstWrong
	return out, nil
}

// traceOverhead is what recording spans cost, as a share of the busy
// time of the rounds that recorded them. Spans are recorded by the
// harness after each timed call returns, so the timed calls themselves
// carry no tracing code; this is harness time between them.
func traceOverhead(rec *recorder, tr *tracer, traced func(round int) bool) float64 {
	var busy time.Duration
	for i, b := range rec.raw.busy {
		if traced(i) {
			busy += b.read + b.write
		}
	}
	return ratio(float64(tr.spent), float64(busy))
}

// freshTicks generates n more ticks of the run's mix.
func (e *env) freshTicks(n int) ([]*tick, error) {
	out := make([]*tick, n)
	for i := range out {
		tk, err := newTick(e.ticks, e.rng)
		if err != nil {
			return nil, err
		}
		e.ticks++
		out[i] = tk
	}
	return out, nil
}

// traceLive is the traced run of live-wire: one untraced and one traced
// round against the live stack, then twins of the sharded engine and of
// a single tree brought to the same state, and the ladder from the
// client connection down to a shard's page store.
func traceLive(cfg config) (*outcome, error) {
	cfg.rounds, cfg.setups = 2, 1
	out, run, err := measureLive(cfg, true)
	if err != nil {
		return nil, err
	}
	w, rec, tr := run.w, run.rec, run.tr
	defer w.close()

	l := newLedger()
	l["benchmark.trace_overhead_share"] = traceOverhead(rec, tr, func(round int) bool { return round == cfg.rounds-1 })
	if err := runStats(l, rec, w.db, run.walBefore); err != nil {
		return nil, err
	}
	var late []float64
	stalled := 0
	for _, fr := range run.feeds {
		late = append(late, fr.late...)
		stalled += stalledFrames(w.frames, fr.inFlight)
	}
	behind := 0
	for _, d := range late {
		if d > 1 {
			behind++
		}
	}
	l["benchmark.generator_late_share"] = ratio(float64(behind), float64(len(late)))
	l["dynq.frame_stall_share"] = ratio(float64(stalled), float64(len(w.frames)))
	l["netq.overload_rejections"] = float64(w.ep.srv.Registry().Counter("netq_overload_rejections_total").Value())
	l["shard.place_skew"] = placeSkew(w.m.segs)

	// Twins, brought to the database's state by the same writes.
	engine, loaded, err := newEngine(w.dir, w.base)
	if err != nil {
		return nil, err
	}
	defer engine.Close()
	l["rtree.bulkload_s"] = loaded.Seconds()
	single, err := newTwin(serialSpec{options: func(string) dynq.Options { return dynq.Options{} }}, w.dir, w.base)
	if err != nil {
		return nil, err
	}
	defer single.close()
	var applyUs []float64
	for _, ups := range w.sent {
		batch := make([]shard.Update, len(ups))
		for i, u := range ups {
			batch[i] = shard.Update{ID: rtree.ObjectID(u.ID), T0: u.Segment.T0, Delete: u.Delete}
			if !u.Delete {
				batch[i].Seg = segOf(u.ID, u.Segment).geom()
			}
		}
		at := time.Now()
		if err := engine.ApplyBatch(batch); err != nil {
			return nil, err
		}
		applyUs = append(applyUs, us(time.Since(at)))
		if _, err := single.replay(ups, nil, -1); err != nil {
			return nil, err
		}
	}
	// Everything in a batch's acknowledgement latency that is not the
	// shard trees' own work: the wire, the log, the commit wait.
	l["dynq.apply_self_us"] = 1000*median(rec.raw.batchMs) - median(applyUs)
	at := time.Now()
	for i := 0; i < engine.Shards(); i++ {
		if err := engine.Shard(i).Tree.Pool().Flush(); err != nil {
			return nil, err
		}
	}
	l["pager.flush_ms"] = ms(time.Since(at))

	ticks := make([]*tick, cfg.probeTicks())
	for i := range ticks {
		if ticks[i], err = newTick(w.ticks+i, w.viewRng); err != nil {
			return nil, err
		}
	}
	p := probe{client: w.view, db: w.db, engine: engine, tr: tr}
	diverged, err := p.ladder(l, ticks)
	if err != nil {
		return nil, err
	}
	rec.check(diverged == 0, "the twin engine and the database disagree on %d probe frames", diverged)
	if err := wireCosts(l, w.view, w.db, ticks); err != nil {
		return nil, err
	}
	if err := shardCosts(l, engine, single.tree, ticks); err != nil {
		return nil, err
	}
	tree, store := engine.Shard(0).Tree, engine.Shard(0).Store()
	if err := coreCosts(l, tree, ticks); err != nil {
		return nil, err
	}
	if err := nodeCosts(l, tree, ticks); err != nil {
		return nil, err
	}
	if err := updateCosts(l, single.tree, &single.cost, w.m.segs); err != nil {
		return nil, err
	}
	if err := walCosts(l, w.dir, cfg.scale(256)); err != nil {
		return nil, err
	}
	if err := recoverCost(l, w.dir, w.m.segs); err != nil {
		return nil, err
	}
	if err := poolCosts(l, tree, store); err != nil {
		return nil, err
	}

	path, err := tr.write("live-wire")
	if err != nil {
		return nil, err
	}
	fmt.Printf("spans: %d written to %s; most self time: %s\n", len(tr.spans), path, dominant(tr.spans))
	out.layers = l
	out.attempted, out.failed, out.firstWrong = rec.attempted, rec.failed, rec.firstWrong
	return out, nil
}

// stalledFrames counts the frames that overran the budget while a write
// batch was in flight. Both lists are in time order.
func stalledFrames(frames, inFlight []span) int {
	n, k := 0, 0
	for _, f := range frames {
		if f.to.Sub(f.from) <= frameBudget {
			continue
		}
		for k < len(inFlight) && inFlight[k].to.Before(f.from) {
			k++
		}
		if k < len(inFlight) && inFlight[k].from.Before(f.to) {
			n++
		}
	}
	return n
}
