package dynq

import (
	"fmt"

	"dynq/internal/core"
	"dynq/internal/shard"
	"dynq/internal/trajectory"
)

// Waypoint is one key snapshot of an observer trajectory: the view
// rectangle the observer sees at time T. Between waypoints the view's
// borders interpolate linearly.
type Waypoint struct {
	T    float64
	View Rect
}

// PredictiveOptions tune a predictive session.
type PredictiveOptions struct {
	// Live subscribes the session to concurrent insertions so objects
	// reported after the session started still appear in its results.
	Live bool
}

// PredictiveSession is a running predictive dynamic query (PDQ): one
// cursor per unit, each drained once per window, the units' answers merged
// in order of appearance. Results are pulled with Fetch; each index node
// is read at most once over the session's lifetime. Not safe for
// concurrent use by multiple goroutines.
type PredictiveSession struct {
	pdq *shard.PDQ
}

// buildTrajectory converts API waypoints into the core trajectory form.
func buildTrajectory(waypoints []Waypoint, dims int) (*trajectory.Trajectory, error) {
	keys := make([]trajectory.Key, len(waypoints))
	for i, w := range waypoints {
		box, err := toBoxDims(w.View, dims)
		if err == nil && hasNaN(w.T) {
			err = fmt.Errorf("%w in time", ErrNonFinite)
		}
		if err != nil {
			return nil, fmt.Errorf("waypoint %d: %w", i, err)
		}
		keys[i] = trajectory.Key{T: w.T, Window: box}
	}
	return trajectory.New(keys)
}

// Predictive registers an observer trajectory and starts a predictive
// dynamic query over it (*PredictiveSession is the cursor).
func (e *engine) Predictive(waypoints []Waypoint, opts PredictiveOptions) (PredictiveCursor, error) {
	traj, err := buildTrajectory(waypoints, e.dims)
	if err != nil {
		return nil, err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	pdq, err := e.units.NewPDQ(traj, core.PDQOptions{LiveUpdates: opts.Live})
	if err != nil {
		return nil, err
	}
	return &PredictiveSession{pdq: pdq}, nil
}

// Fetch returns every object becoming visible during [t0, t1] — the
// per-frame fetch loop of a rendering client. Windows must advance
// monotonically along the trajectory. After an error nothing is lost: the
// next Fetch returns what this one gathered, as far as it is still visible
// then — on one unit ahead of the rest, on several in order of appearance
// with it.
func (s *PredictiveSession) Fetch(t0, t1 float64) ([]Result, error) {
	rs, err := s.pdq.Fetch(t0, t1)
	if err != nil || len(rs) == 0 {
		return nil, err
	}
	return fromResults(rs), nil
}

// Close releases the session (and its live-update subscriptions).
func (s *PredictiveSession) Close() { s.pdq.Close() }

// NonPredictiveOptions is empty: a non-predictive session has one mode,
// the paper's. The type stays because the nested benchmark module
// compiles against it.
type NonPredictiveOptions struct{}

// NonPredictiveSession is a running non-predictive dynamic query (NPDQ):
// a stream of snapshot queries where each answer contains only objects
// not delivered by the immediately preceding snapshot. Not safe for
// concurrent use by multiple goroutines.
type NonPredictiveSession struct {
	dims int
	npdq *shard.NPDQ
}

// NonPredictive starts a non-predictive dynamic query session
// (*NonPredictiveSession is the cursor).
func (e *engine) NonPredictive(NonPredictiveOptions) NonPredictiveCursor {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return &NonPredictiveSession{dims: e.dims, npdq: e.units.NewNPDQ()}
}

// Snapshot evaluates the next snapshot of the dynamic query and returns
// the additional answers not delivered by the previous snapshot.
func (s *NonPredictiveSession) Snapshot(view Rect, t0, t1 float64) ([]Result, error) {
	box, err := toBoxDims(view, s.dims)
	if err != nil {
		return nil, err
	}
	tw, err := toWindow(t0, t1)
	if err != nil {
		return nil, err
	}
	rs, err := s.npdq.Next(box, tw)
	if err != nil {
		return nil, err
	}
	return fromResults(rs), nil
}

// Reset forgets the previous snapshot (observer teleported): the next
// Snapshot returns a full answer.
func (s *NonPredictiveSession) Reset() { s.npdq.Reset() }

// AdaptiveOptions tune the automatic PDQ↔NPDQ hand-off of an adaptive
// session (the paper's future work (iv)).
type AdaptiveOptions struct {
	// Slack is the deviation tolerated before a prediction is abandoned;
	// predictive phases run as SPDQ with views inflated by this much.
	Slack float64
	// Horizon is how far ahead (time units) each prediction extends.
	Horizon float64
	// StableFrames is how many consecutive consistent frames are needed
	// before switching to predictive mode (default 3).
	StableFrames int
}

// AdaptiveSession evaluates a dynamic query without a registered
// trajectory: it starts non-predictive, switches to a semi-predictive
// session whenever the observer's recent motion extrapolates, and falls
// back when the observer deviates; each unit predicts and hands off
// independently. Not safe for concurrent use.
type AdaptiveSession struct {
	dims int
	a    *shard.Adaptive
}

// Adaptive starts an adaptive dynamic query session.
func (e *engine) Adaptive(opts AdaptiveOptions) (*AdaptiveSession, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	a, err := e.units.NewAdaptive(core.AdaptiveOptions{
		Slack:        opts.Slack,
		Horizon:      opts.Horizon,
		StableFrames: opts.StableFrames,
	})
	if err != nil {
		return nil, err
	}
	return &AdaptiveSession{dims: e.dims, a: a}, nil
}

// Frame reports the observer's actual view for one frame and returns the
// newly visible objects. Frames must advance monotonically in time.
func (s *AdaptiveSession) Frame(view Rect, t0, t1 float64) ([]Result, error) {
	box, err := toBoxDims(view, s.dims)
	if err != nil {
		return nil, err
	}
	tw, err := toWindow(t0, t1)
	if err != nil {
		return nil, err
	}
	rs, err := s.a.Frame(box, tw)
	if err != nil {
		return nil, err
	}
	return fromResults(rs), nil
}

// Predictive reports whether the session (every unit's part of it) is
// currently running on a predicted trajectory.
func (s *AdaptiveSession) Predictive() bool { return s.a.Predictive() }

// Handoffs reports how many PDQ↔NPDQ switches have happened.
func (s *AdaptiveSession) Handoffs() int { return s.a.Switches() }

// Close releases any live predictive sub-session.
func (s *AdaptiveSession) Close() { s.a.Close() }
