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
// sorted by core.CompareResults, keeps the paper's "report each object
// once, in order of appearance" contract — an object lives in exactly one
// shard, so the union holds no duplicates.
//
// Not safe for concurrent use by multiple goroutines; concurrent inserts
// to the engine are safe when the session was started with LiveUpdates.
type PDQ struct {
	e       *Engine
	cursors []*core.PDQ
	parts   [][]core.Result // with several shards, each one's drain of the window
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

// Fetch appends to out every object becoming visible during [t0, t1]
// across all shards and not delivered yet, and returns the extended slice.
// One shard appends in its cursor's order. With several, the whole slice,
// what out held included, comes back sorted by core.CompareResults, so
// that results a caller held over from an earlier fetch merge in. Windows
// must advance monotonically, as for a single-tree PDQ. After an error the
// slice holds what every shard gathered before it, and a retried window
// delivers the rest.
func (p *PDQ) Fetch(t0, t1 float64, out []core.Result) ([]core.Result, error) {
	if len(p.cursors) == 1 {
		return p.cursors[0].DrainTo(t0, t1, out)
	}
	drains := make([]func() error, len(p.cursors))
	for i, c := range p.cursors {
		drains[i] = func() (err error) {
			p.parts[i], err = c.DrainTo(t0, t1, p.parts[i])
			return err
		}
	}
	err := p.e.run(drains)
	for i, part := range p.parts {
		out = append(out, part...)
		clear(part) // the answer is the caller's now
		p.parts[i] = part[:0]
	}
	slices.SortStableFunc(out, core.CompareResults)
	return out, err
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
	err := n.e.FanOut(nil, func(i int, _ *Shard) error {
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
	err := a.e.FanOut(nil, func(i int, _ *Shard) error {
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
