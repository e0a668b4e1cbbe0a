package dynq

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"dynq/internal/geom"
)

// TrackerOptions configure a Tracker.
type TrackerOptions struct {
	// Dims is the spatial dimensionality (default 2).
	Dims int
}

// Tracker holds the *current* motion state of a fleet — one (position,
// velocity) report per object — and answers questions about the present
// and the anticipated future: who is (or will be) inside a window, now,
// during an interval, or along an observer's trajectory. It is the
// companion (the paper's future work (iii)) to DB, which stores the full
// motion history.
//
// A query tests every state, with the leaf arithmetic of DB's exact
// tests: an update costs one slot write, and a query Len() tests.
//
// A Tracker is an in-process library: netq does not serve it, and it has
// no write-ahead log, units or recovery. Embed it beside a DB where a
// program needs the present-state answers (examples/airtraffic).
//
// Safe for concurrent use: queries (At, During, Along, Len) hold a shared
// lock and run in parallel; Update holds the exclusive lock.
type Tracker struct {
	mu     sync.RWMutex
	dims   int
	states []Anticipated    // Appear and Vanish unused
	slot   map[ObjectID]int // id → index in states
	now    float64          // latest update time
}

// Anticipated is one Tracker answer: an object's current motion state and
// the time interval during which it satisfies the query, assuming it
// keeps its course.
type Anticipated struct {
	ID       ObjectID
	Time     float64 // reference time of the state
	Pos, Vel []float64
	Appear   float64
	Vanish   float64
}

// NewTracker creates an empty current-state index.
func NewTracker(opts TrackerOptions) (*Tracker, error) {
	if opts.Dims == 0 {
		opts.Dims = 2
	}
	if opts.Dims < 1 {
		return nil, fmt.Errorf("dynq: tracker dims must be positive, got %d", opts.Dims)
	}
	return &Tracker{dims: opts.Dims, slot: make(map[ObjectID]int)}, nil
}

// Update records an object's latest motion state: at time t it is at pos
// moving with velocity vel. Updates for one object must not go back in
// time, and every value must be finite (ErrNonFinite).
func (tk *Tracker) Update(id ObjectID, t float64, pos, vel []float64) error {
	if len(pos) != tk.dims || len(vel) != tk.dims {
		return fmt.Errorf("dynq: tracker update has %d/%d dims, want %d", len(pos), len(vel), tk.dims)
	}
	if nonFinite(t) || nonFinite(pos...) || nonFinite(vel...) {
		return fmt.Errorf("%w in tracker update at %g: %v moving %v", ErrNonFinite, t, pos, vel)
	}
	s := Anticipated{ID: id, Time: t, Pos: slices.Clone(pos), Vel: slices.Clone(vel)}
	tk.mu.Lock()
	defer tk.mu.Unlock()
	if i, ok := tk.slot[id]; ok {
		if t < tk.states[i].Time {
			return fmt.Errorf("dynq: stale update for object %d (%g < %g)", id, t, tk.states[i].Time)
		}
		tk.states[i] = s
	} else {
		tk.slot[id] = len(tk.states)
		tk.states = append(tk.states, s)
	}
	tk.now = max(tk.now, t)
	return nil
}

// nonFinite reports whether a value is NaN or infinite. A tracked state is
// float64, so the index's float32 bound does not apply.
func nonFinite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
	}
	return false
}

// Len reports how many objects are tracked.
func (tk *Tracker) Len() int {
	tk.mu.RLock()
	defer tk.mu.RUnlock()
	return len(tk.states)
}

// At returns every object anticipated inside the view at time t.
func (tk *Tracker) At(view Rect, t float64) ([]Anticipated, error) {
	return tk.During(view, t, t)
}

// During returns every object anticipated inside the view at some time
// in [t0, t1], each with the interval it stays inside.
func (tk *Tracker) During(view Rect, t0, t1 float64) ([]Anticipated, error) {
	box, err := toBoxDims(view, tk.dims)
	if err != nil {
		return nil, err
	}
	tw, err := toWindow(t0, t1)
	if err != nil {
		return nil, err
	}
	if tw.Empty() {
		return nil, fmt.Errorf("dynq: tracker query time window [%g,%g] is empty", t0, t1)
	}
	tk.mu.RLock()
	defer tk.mu.RUnlock()
	if err := tk.checkStart(t0); err != nil {
		return nil, err
	}
	var out []Anticipated
	for i := range tk.states {
		s := &tk.states[i]
		iv := tw
		for d := 0; d < tk.dims && !iv.Empty(); d++ {
			iv = s.coord(d).SolveBetween(box[d].Lo, box[d].Hi, iv)
		}
		if !iv.Empty() {
			out = append(out, s.answer(iv))
		}
	}
	return out, nil
}

// Along returns every object anticipated to enter the moving view defined
// by the waypoints — a predictive dynamic query against current states —
// with the hull of its visibility episodes. One waypoint is At.
func (tk *Tracker) Along(waypoints []Waypoint) ([]Anticipated, error) {
	traj, err := buildTrajectory(waypoints, tk.dims)
	if err != nil {
		return nil, err
	}
	if traj.Instant() {
		return tk.At(waypoints[0].View, waypoints[0].T)
	}
	tk.mu.RLock()
	defer tk.mu.RUnlock()
	if err := tk.checkStart(traj.TimeSpan().Lo); err != nil {
		return nil, err
	}
	var (
		out []Anticipated
		set geom.IntervalSet
		x   = make([]geom.Linear, tk.dims)
	)
	for i := range tk.states {
		s := &tk.states[i]
		for d := range x {
			x[d] = s.coord(d)
		}
		set.Reset()
		traj.OverlapMotion(geom.Interval{Lo: s.Time, Hi: math.Inf(1)}, x, &set)
		if !set.Empty() {
			out = append(out, s.answer(set.Hull()))
		}
	}
	return out, nil
}

// checkStart refuses a query that starts before the latest update: the
// states answer for the present and the future; DB holds the history.
func (tk *Tracker) checkStart(t float64) error {
	if t < tk.now {
		return fmt.Errorf("dynq: tracker query starts at %g, before the current time %g", t, tk.now)
	}
	return nil
}

// coord returns the state's coordinate d as a linear function of time.
func (s *Anticipated) coord(d int) geom.Linear {
	return geom.Linear{A: s.Pos[d], B: s.Vel[d], T0: s.Time}
}

// answer is the state with its episode, in slices the caller owns.
func (s Anticipated) answer(iv geom.Interval) Anticipated {
	s.Pos, s.Vel = slices.Clone(s.Pos), slices.Clone(s.Vel)
	s.Appear, s.Vanish = iv.Lo, iv.Hi
	return s
}
