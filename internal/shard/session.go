package shard

import (
	"slices"

	"dynq/internal/core"
	"dynq/internal/geom"
	"dynq/internal/trajectory"
)

// PDQ is a predictive dynamic query over a sharded engine: one core.PDQ
// cursor per shard, all registered on the same observer trajectory. A
// window's answer is every cursor's drain of it. One shard's drain is the
// answer as it comes; several shards drain in parallel, and their union,
// merged by merge, keeps the paper's "report each object once, in order of
// appearance" contract — an object lives in exactly one shard, so the
// union holds no duplicates.
//
// Not safe for concurrent use by multiple goroutines; concurrent inserts
// to the engine are safe when the session was started with LiveUpdates.
type PDQ struct {
	e       *Engine
	cursors []*core.PDQ
	// parts holds each shard's drain of the window; after a failed Fetch,
	// what each gathered before the error, which the next Fetch still owes.
	parts [][]core.Result
	out   []core.Result // the last answer: merge's scratch, or the one shard's buffer
}

// NewPDQ starts one predictive cursor per shard over the trajectory.
func (e *Engine) NewPDQ(traj *trajectory.Trajectory, opts core.PDQOptions) (*PDQ, error) {
	p := &PDQ{e: e, cursors: make([]*core.PDQ, len(e.shards)), parts: make([][]core.Result, len(e.shards))}
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

// Fetch returns every object becoming visible during [t0, t1] across all
// shards and not delivered yet, merged by merge. The slice is the
// session's own, valid until the next Fetch. Windows must advance
// monotonically, as for a single-tree PDQ. After an error nothing is lost:
// the next Fetch returns what this one gathered, as far as it is still
// visible then — on one shard ahead of the rest of its window.
func (p *PDQ) Fetch(t0, t1 float64) ([]core.Result, error) {
	clear(p.out) // the last answer is its caller's
	p.out = p.out[:0]
	for i, part := range p.parts {
		// A held result over before this window is dropped, as a cursor
		// drops an item.
		p.parts[i] = slices.DeleteFunc(part, func(r core.Result) bool { return t0 > r.Disappear })
	}
	var err error
	if len(p.cursors) == 1 {
		p.parts[0], err = p.cursors[0].DrainTo(t0, t1, p.parts[0])
	} else {
		drains := make([]func() error, len(p.cursors))
		for i, c := range p.cursors {
			drains[i] = func() (err error) {
				p.parts[i], err = c.DrainTo(t0, t1, p.parts[i])
				return err
			}
		}
		err = p.e.run(drains)
	}
	if err != nil {
		return nil, err
	}
	p.out = merge(p.out, p.parts)
	for i, part := range p.parts {
		if len(p.parts) > 1 {
			clear(part) // the answer is in out
		}
		p.parts[i] = part[:0] // one shard's is the answer, and takes the next
	}
	return p.out, nil
}

// Close releases every per-shard cursor (and live-update subscription).
func (p *PDQ) Close() {
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
	out      []core.Result // the last answer; with several shards, merge's scratch
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
// union of the per-shard incremental answers, merged by merge. The slice
// is valid until the next Next.
func (n *NPDQ) Next(window geom.Box, tw geom.Interval) ([]core.Result, error) {
	parts := make([][]core.Result, len(n.sessions))
	err := n.e.FanOut(nil, func(i int, _ *Shard) error {
		rs, err := n.sessions[i].Next(window, tw)
		parts[i] = rs
		return err
	})
	if err != nil {
		return nil, err
	}
	n.out = merge(n.out, parts)
	return n.out, nil
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
	out      []core.Result // the last answer; with several shards, merge's scratch
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
// returns the union of newly visible objects, merged by merge. The slice
// is valid until the next Frame.
func (a *Adaptive) Frame(window geom.Box, tw geom.Interval) ([]core.Result, error) {
	parts := make([][]core.Result, len(a.sessions))
	err := a.e.FanOut(nil, func(i int, _ *Shard) error {
		rs, err := a.sessions[i].Frame(window, tw)
		parts[i] = rs
		return err
	})
	if err != nil {
		return nil, err
	}
	a.out = merge(a.out, parts)
	return a.out, nil
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

// merge returns the shards' parts of an answer as one slice: a single part
// as it is, in its session's order; several appended to scratch, whose last
// answer it clears first, and sorted by core.CompareResults, by
// appearance. An object lives in one shard, so the order is total and does
// not depend on which shard finished first.
func merge(scratch []core.Result, parts [][]core.Result) []core.Result {
	if len(parts) == 1 {
		return parts[0]
	}
	clear(scratch) // the last answer is its caller's
	out := scratch[:0]
	for _, rs := range parts {
		out = append(out, rs...)
	}
	slices.SortFunc(out, core.CompareResults)
	return out
}
