package dynq

import (
	"sync"

	"dynq/internal/geom"
	"dynq/internal/stats"
	"dynq/internal/tpr"
)

// TrackerOptions configure a Tracker.
type TrackerOptions struct {
	// Dims is the spatial dimensionality (default 2).
	Dims int
	// Horizon is the anticipation window the index optimizes for — choose
	// it near the expected time between motion updates (default 2).
	Horizon float64
}

// trackerFanout is the node capacity of the tracker's TPR-tree.
const trackerFanout = 32

// Tracker indexes the *current* motion state of a fleet — one (position,
// velocity) entry per object — and answers questions about the present
// and the anticipated future: who is (or will be) inside a window, now,
// during an interval, or along an observer's trajectory. It is the
// TPR-tree companion (the paper's future work (iii)) to DB, which stores
// the full motion history.
//
// A Tracker is an in-process library: netq does not serve it, and it has
// no write-ahead log, units or recovery. Embed it beside a DB where a
// program needs the present-state answers (examples/airtraffic).
//
// Safe for concurrent use: queries (At, During, Along, Len, Now) hold a
// shared lock and run in parallel; Update and Remove hold the exclusive
// lock.
type Tracker struct {
	mu       sync.RWMutex
	tree     *tpr.Tree
	counters stats.Counters
	dims     int
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
	if opts.Horizon == 0 {
		opts.Horizon = 2
	}
	tree, err := tpr.New(opts.Dims, opts.Horizon, trackerFanout)
	if err != nil {
		return nil, err
	}
	return &Tracker{tree: tree, dims: opts.Dims}, nil
}

// Update records an object's latest motion state: at time t it is at pos
// moving with velocity vel. Updates for one object must not go back in
// time.
func (tk *Tracker) Update(id ObjectID, t float64, pos, vel []float64) error {
	tk.mu.Lock()
	defer tk.mu.Unlock()
	return tk.tree.Update(tpr.Entry{
		ID:      id,
		RefTime: t,
		Pos:     geom.Point(pos),
		Vel:     geom.Point(vel),
	})
}

// Remove forgets an object, reporting whether it was tracked.
func (tk *Tracker) Remove(id ObjectID) bool {
	tk.mu.Lock()
	defer tk.mu.Unlock()
	return tk.tree.Remove(id)
}

// Len reports how many objects are tracked.
func (tk *Tracker) Len() int {
	tk.mu.RLock()
	defer tk.mu.RUnlock()
	return tk.tree.Len()
}

// Now returns the latest update time; queries must not start before it.
func (tk *Tracker) Now() float64 {
	tk.mu.RLock()
	defer tk.mu.RUnlock()
	return tk.tree.Now()
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
	tk.mu.RLock()
	defer tk.mu.RUnlock()
	ms, err := tk.tree.SearchDuring(box, tw, &tk.counters)
	if err != nil {
		return nil, err
	}
	return fromMatches(ms), nil
}

// Along returns every object anticipated to enter the moving view defined
// by the waypoints — a predictive dynamic query against current states.
func (tk *Tracker) Along(waypoints []Waypoint) ([]Anticipated, error) {
	traj, err := buildTrajectory(waypoints, tk.dims)
	if err != nil {
		return nil, err
	}
	tk.mu.RLock()
	defer tk.mu.RUnlock()
	ms, err := tk.tree.SearchTrajectory(traj, &tk.counters)
	if err != nil {
		return nil, err
	}
	return fromMatches(ms), nil
}

// Cost returns the tracker's accumulated query cost.
func (tk *Tracker) Cost() CostReport { return costReport(tk.counters.Snapshot()) }

// ResetCost zeroes the tracker's cost counters.
func (tk *Tracker) ResetCost() { tk.counters.Reset() }

func fromMatches(ms []tpr.Match) []Anticipated {
	out := make([]Anticipated, len(ms))
	for i, m := range ms {
		out[i] = Anticipated{
			ID:     m.Entry.ID,
			Time:   m.Entry.RefTime,
			Pos:    append([]float64(nil), m.Entry.Pos...),
			Vel:    append([]float64(nil), m.Entry.Vel...),
			Appear: m.Overlap.Lo,
			Vanish: m.Overlap.Hi,
		}
	}
	return out
}
