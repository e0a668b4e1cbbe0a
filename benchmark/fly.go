package main

import (
	"time"

	"dynq"
	"dynq/netq"
)

// frameBudget is the fixed per-frame deadline of frame_on_time_share.
const frameBudget = 5 * time.Millisecond

// viewer is the query surface a tick flies against: the database itself
// for the serial workloads, a netq connection for live-wire.
type viewer interface {
	snapshot(v dynq.Rect, t0, t1 float64) ([]dynq.Result, error)
	startPDQ(w []dynq.Waypoint) error
	fetchPDQ(t0, t1 float64) ([]dynq.Result, error)
	endPDQ()
	resetNPDQ() error
	stepNPDQ(v dynq.Rect, t0, t1 float64) ([]dynq.Result, error)
}

type localViewer struct {
	db   dynq.Database
	pdq  dynq.PredictiveCursor
	npdq dynq.NonPredictiveCursor
}

func (l *localViewer) snapshot(v dynq.Rect, t0, t1 float64) ([]dynq.Result, error) {
	return l.db.Snapshot(v, t0, t1)
}

func (l *localViewer) startPDQ(w []dynq.Waypoint) (err error) {
	l.pdq, err = l.db.Predictive(w, dynq.PredictiveOptions{})
	return err
}

func (l *localViewer) fetchPDQ(t0, t1 float64) ([]dynq.Result, error) { return l.pdq.Fetch(t0, t1) }

func (l *localViewer) endPDQ() { l.pdq.Close() }

func (l *localViewer) resetNPDQ() error {
	l.npdq = l.db.NonPredictive(dynq.NonPredictiveOptions{})
	return nil
}

func (l *localViewer) stepNPDQ(v dynq.Rect, t0, t1 float64) ([]dynq.Result, error) {
	return l.npdq.Snapshot(v, t0, t1)
}

// wireViewer flies over one netq connection. Its predictive sessions are
// live: the feeder writes while they run.
type wireViewer struct{ c *netq.Client }

func (w wireViewer) snapshot(v dynq.Rect, t0, t1 float64) ([]dynq.Result, error) {
	return w.c.Snapshot(v, t0, t1)
}

func (w wireViewer) startPDQ(wp []dynq.Waypoint) error { return w.c.StartPredictive(wp, true) }

func (w wireViewer) fetchPDQ(t0, t1 float64) ([]dynq.Result, error) {
	return w.c.FetchPredictive(t0, t1)
}

func (w wireViewer) endPDQ() {}

func (w wireViewer) resetNPDQ() error { return w.c.ResetNonPredictive() }

func (w wireViewer) stepNPDQ(v dynq.Rect, t0, t1 float64) ([]dynq.Result, error) {
	return w.c.NonPredictive(v, t0, t1)
}

// flight is what flying one tick produced: the answers and, per strategy
// and frame, the call's start and latency.
type flight struct {
	ans   answers
	start [strategies][]time.Time
	lat   [strategies][]time.Duration
}

// fly runs one tick: the same 51 frames under naive snapshots, then one
// predictive session, then one non-predictive session. Session start is
// part of the first frame of its strategy.
func fly(v viewer, tk *tick) (*flight, error) {
	f := &flight{}
	n := len(tk.views)
	for s := range f.ans {
		f.ans[s] = make([][]dynq.Result, n)
		f.start[s] = make([]time.Time, n)
		f.lat[s] = make([]time.Duration, n)
	}
	for i := 0; i < n; i++ {
		f.start[naive][i] = time.Now()
		rs, err := v.snapshot(tk.views[i], tk.times[i].Lo, tk.times[i].Hi)
		f.lat[naive][i] = time.Since(f.start[naive][i])
		if err != nil {
			return nil, err
		}
		f.ans[naive][i] = rs
	}
	for i := 0; i < n; i++ {
		f.start[pdq][i] = time.Now()
		if i == 0 {
			if err := v.startPDQ(tk.waypoints); err != nil {
				return nil, err
			}
		}
		rs, err := v.fetchPDQ(tk.times[i].Lo, tk.times[i].Hi)
		f.lat[pdq][i] = time.Since(f.start[pdq][i])
		if err != nil {
			return nil, err
		}
		f.ans[pdq][i] = rs
	}
	v.endPDQ()
	for i := 0; i < n; i++ {
		f.start[npdq][i] = time.Now()
		if i == 0 {
			if err := v.resetNPDQ(); err != nil {
				return nil, err
			}
		}
		rs, err := v.stepNPDQ(tk.views[i], tk.times[i].Lo, tk.times[i].Hi)
		f.lat[npdq][i] = time.Since(f.start[npdq][i])
		if err != nil {
			return nil, err
		}
		f.ans[npdq][i] = rs
	}
	return f, nil
}
