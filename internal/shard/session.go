package shard

import (
	"fmt"
	"slices"

	"dynq/internal/core"
	"dynq/internal/geom"
	"dynq/internal/trajectory"
)

// PDQ is a predictive dynamic query over a sharded engine: one core.PDQ
// cursor per shard, all registered on the same observer trajectory, merged
// through an appearance-time min-heap. Each per-shard stream delivers its
// results in order of appearance within a window, so taking the earliest
// buffered head across shards preserves the paper's "report each object
// once, in order of appearance" contract — an object lives in exactly one
// shard, so the merge can introduce no duplicates.
//
// Not safe for concurrent use by multiple goroutines; concurrent inserts
// to the engine are safe when the session was started with LiveUpdates.
type PDQ struct {
	e       *Engine
	cursors []*core.PDQ
	heads   []core.Result // buffered head per shard, where held
	held    []bool        // heads[i] is buffered; false = needs refill
	done    []bool        // shard exhausted for the current window
	t0, t1  float64
	haveWin bool
	closed  bool
}

// NewPDQ starts one predictive cursor per shard over the trajectory.
func (e *Engine) NewPDQ(traj *trajectory.Trajectory, opts core.PDQOptions) (*PDQ, error) {
	p := &PDQ{
		e:       e,
		cursors: make([]*core.PDQ, len(e.shards)),
		heads:   make([]core.Result, len(e.shards)),
		held:    make([]bool, len(e.shards)),
		done:    make([]bool, len(e.shards)),
	}
	for i, sh := range e.shards {
		c, err := core.NewPDQ(sh.Tree, traj, opts, &sh.Counters)
		if err != nil {
			p.Close()
			return nil, err
		}
		p.cursors[i] = c
	}
	return p, nil
}

// GetNext returns the next object becoming visible during [tStart, tEnd]
// across all shards; ok is false when no further object appears in that
// window. Windows must advance monotonically, as for a single-tree PDQ.
func (p *PDQ) GetNext(tStart, tEnd float64) (r core.Result, ok bool, err error) {
	if p.closed {
		return r, false, fmt.Errorf("shard: GetNext on closed PDQ")
	}
	if tEnd < tStart {
		return r, false, fmt.Errorf("shard: GetNext window [%g,%g] is empty", tStart, tEnd)
	}
	if !p.haveWin || tStart != p.t0 || tEnd != p.t1 {
		// New window: shards exhausted for the previous window may have
		// more to deliver in this one.
		for i := range p.done {
			p.done[i] = false
		}
		p.t0, p.t1, p.haveWin = tStart, tEnd, true
	}
	if err := p.refill(); err != nil {
		return r, false, err
	}
	best := -1
	for i := range p.heads {
		if p.held[i] && (best == -1 || core.CompareResults(p.heads[i], p.heads[best]) < 0) {
			best = i
		}
	}
	if best == -1 {
		return r, false, nil
	}
	r, p.heads[best], p.held[best] = p.heads[best], core.Result{}, false
	return r, true, nil
}

// refill pulls a head from every shard cursor that has none. The
// per-window seeding touches every shard and fans out in parallel; the
// refill after a pop touches only the shard just popped and is called
// directly. Buffered heads whose visibility ended before the window are
// dropped and re-pulled, mirroring the expiry rule of core.PDQ.GetNext.
func (p *PDQ) refill() error {
	need, last := 0, 0
	for i := range p.cursors {
		if p.held[i] && p.heads[i].Disappear < p.t0 {
			p.heads[i], p.held[i] = core.Result{}, false // expired between windows
		}
		if !p.held[i] && !p.done[i] {
			need, last = need+1, i
		}
	}
	if need <= 1 {
		if need == 0 {
			return nil
		}
		return p.pull(last)
	}
	fns := make([]func() error, 0, need)
	for i := range p.cursors {
		if !p.held[i] && !p.done[i] {
			fns = append(fns, func() error { return p.pull(i) })
		}
	}
	return p.e.run(fns)
}

// pull advances shard i's cursor to its next result still visible in the
// current window, buffering it as the shard's head.
func (p *PDQ) pull(i int) error {
	for {
		r, ok, err := p.cursors[i].GetNext(p.t0, p.t1)
		if err != nil {
			return err
		}
		if !ok {
			p.done[i] = true
			return nil
		}
		if r.Disappear >= p.t0 {
			p.heads[i], p.held[i] = r, true
			return nil
		}
	}
}

// Close releases every per-shard cursor (and live-update subscription).
func (p *PDQ) Close() {
	if p.closed {
		return
	}
	p.closed = true
	for _, c := range p.cursors {
		if c != nil {
			c.Close()
		}
	}
}

// NPDQ is a non-predictive dynamic query over a sharded engine: one
// core.NPDQ session per shard, each remembering its own previous snapshot
// for the discardability pruning of Lemma 1. Not safe for concurrent Next
// calls.
type NPDQ struct {
	e        *Engine
	sessions []*core.NPDQ
}

// NewNPDQ starts one non-predictive session per shard.
func (e *Engine) NewNPDQ() *NPDQ {
	n := &NPDQ{e: e, sessions: make([]*core.NPDQ, len(e.shards))}
	for i, sh := range e.shards {
		n.sessions[i] = core.NewNPDQ(sh.Tree, core.NPDQOptions{}, &sh.Counters)
	}
	return n
}

// Next evaluates the snapshot on every shard in parallel and returns the
// union of the per-shard incremental answers, sorted by appearance time
// (ties by object id, then segment start) for a deterministic merge.
func (n *NPDQ) Next(window geom.Box, tw geom.Interval) ([]core.Result, error) {
	parts := make([][]core.Result, len(n.sessions))
	err := n.e.fanOut(func(i int, _ *Shard) error {
		rs, err := n.sessions[i].Next(window, tw)
		parts[i] = rs
		return err
	})
	if err != nil {
		return nil, err
	}
	return mergeResults(parts), nil
}

// Reset forgets every shard's previous snapshot (observer teleported).
func (n *NPDQ) Reset() {
	for _, s := range n.sessions {
		s.Reset()
	}
}

// Adaptive is an adaptive dynamic query over a sharded engine: one
// core.Adaptive session per shard, fed the same frames. Each shard
// predicts and hands off independently. Not safe for concurrent use.
type Adaptive struct {
	e        *Engine
	sessions []*core.Adaptive
}

// NewAdaptive starts one adaptive session per shard.
func (e *Engine) NewAdaptive(opts core.AdaptiveOptions) (*Adaptive, error) {
	a := &Adaptive{e: e, sessions: make([]*core.Adaptive, len(e.shards))}
	for i, sh := range e.shards {
		s, err := core.NewAdaptive(sh.Tree, opts, &sh.Counters)
		if err != nil {
			a.Close()
			return nil, err
		}
		a.sessions[i] = s
	}
	return a, nil
}

// Frame reports the observer's view to every shard in parallel and
// returns the union of newly visible objects, sorted by appearance.
func (a *Adaptive) Frame(window geom.Box, tw geom.Interval) ([]core.Result, error) {
	parts := make([][]core.Result, len(a.sessions))
	err := a.e.fanOut(func(i int, _ *Shard) error {
		rs, err := a.sessions[i].Frame(window, tw)
		parts[i] = rs
		return err
	})
	if err != nil {
		return nil, err
	}
	return mergeResults(parts), nil
}

// Predictive reports whether every shard session is currently running on
// a predicted trajectory.
func (a *Adaptive) Predictive() bool {
	for _, s := range a.sessions {
		if s == nil || s.Mode() != core.ModePredictive {
			return false
		}
	}
	return true
}

// Switches sums the PDQ↔NPDQ hand-offs across shards.
func (a *Adaptive) Switches() int {
	n := 0
	for _, s := range a.sessions {
		if s != nil {
			n += s.Switches()
		}
	}
	return n
}

// Close releases every shard session.
func (a *Adaptive) Close() {
	for _, s := range a.sessions {
		if s != nil {
			s.Close()
		}
	}
}

// mergeResults flattens per-shard result batches and sorts them by
// appearance time (ties by id, then segment start); a single batch is
// returned as it is.
func mergeResults(parts [][]core.Result) []core.Result {
	if len(parts) == 1 {
		return parts[0] // one session's own order is the answer
	}
	var out []core.Result
	for _, rs := range parts {
		out = append(out, rs...)
	}
	slices.SortFunc(out, core.CompareResults)
	return out
}
