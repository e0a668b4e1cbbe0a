package obs

import (
	"sort"
	"sync"
	"time"
)

// SLOConfig defines the service-level objectives an SLOTracker measures
// attainment against, over a rolling window rotated every
// DefWindowInterval: availabilityObjective of requests answered without
// error, latencyObjective of them faster than LatencyTarget.
type SLOConfig struct {
	// Window is the rolling evaluation window (0 gets 5 minutes).
	Window time.Duration
	// LatencyTarget is the per-request latency objective; a request slower
	// than this is "slow" even if it succeeds (0 gets 100ms).
	LatencyTarget time.Duration
}

// The objectives every tracker measures against.
const (
	availabilityObjective = 0.999
	latencyObjective      = 0.99
)

func (c SLOConfig) withDefaults() SLOConfig {
	if c.Window <= 0 {
		c.Window = 5 * time.Minute
	}
	if c.LatencyTarget <= 0 {
		c.LatencyTarget = 100 * time.Millisecond
	}
	return c
}

// SLOStatus is one operation's objective attainment over the tracker's
// rolling window.
type SLOStatus struct {
	Op     string        `json:"op"`
	Window time.Duration `json:"window"`
	Total  int64         `json:"total"`
	Errors int64         `json:"errors"`
	Slow   int64         `json:"slow"` // successful but over the latency target

	// Availability is the achieved non-error fraction; the objective it is
	// measured against rides along for display.
	Availability          float64 `json:"availability"`
	AvailabilityObjective float64 `json:"availability_objective"`
	// LatencyAttainment is the achieved fraction of requests under the
	// latency target.
	LatencyTargetSeconds float64 `json:"latency_target_seconds"`
	LatencyAttainment    float64 `json:"latency_attainment"`
	LatencyObjective     float64 `json:"latency_objective"`

	// Burn rates: observed budget consumption relative to the objective's
	// error budget (1.0 = burning exactly the budget; >1 = on track to
	// exhaust it before the window's worth of budget allows). A burn rate
	// is 0 with no traffic.
	AvailabilityBurn float64 `json:"availability_burn"`
	LatencyBurn      float64 `json:"latency_burn"`

	// Met reports whether both objectives are currently attained.
	Met bool `json:"met"`
}

// sloSlot is one rotation interval's worth of request outcomes for one
// operation.
type sloSlot struct {
	total  int64
	errors int64
	slow   int64
}

func (s *sloSlot) reset() { *s = sloSlot{} }

// SLOTracker measures availability and latency-objective attainment per
// operation over a rolling window, with error-budget burn rates. Safe
// for concurrent use.
type SLOTracker struct {
	cfg SLOConfig

	mu     sync.Mutex
	series map[string]*slotRing[sloSlot, *sloSlot] // one ring of outcome slots per op
	now    func() time.Time
}

// NewSLOTracker creates a tracker with the given objectives (zero fields
// get defaults: 5m window, 99.9% availability, 99% under 100ms).
func NewSLOTracker(cfg SLOConfig) *SLOTracker {
	return &SLOTracker{
		cfg:    cfg.withDefaults(),
		series: make(map[string]*slotRing[sloSlot, *sloSlot]),
		now:    time.Now,
	}
}

// WithClock replaces the wall clock (tests only). Call before recording.
func (t *SLOTracker) WithClock(now func() time.Time) *SLOTracker {
	t.now = now
	return t
}

// Record notes one request outcome for op: its latency and whether it
// failed. Failed requests consume availability budget; successful ones
// slower than the latency target consume latency budget.
func (t *SLOTracker) Record(op string, d time.Duration, failed bool) {
	slow := d > t.cfg.LatencyTarget
	t.mu.Lock()
	s, ok := t.series[op]
	if !ok {
		r := newSlotRing[sloSlot](DefWindowInterval, t.cfg.Window, func() sloSlot { return sloSlot{} })
		s = &r
		t.series[op] = s
	}
	slot := s.current(t.now())
	slot.total++
	if failed {
		slot.errors++
	} else if slow {
		slot.slow++
	}
	t.mu.Unlock()
}

// Status reports every tracked operation's attainment over the rolling
// window, sorted by op name.
func (t *SLOTracker) Status() []SLOStatus {
	t.mu.Lock()
	now := t.now()
	out := make([]SLOStatus, 0, len(t.series))
	for op, s := range t.series {
		st := SLOStatus{
			Op:                    op,
			Window:                t.cfg.Window,
			AvailabilityObjective: availabilityObjective,
			LatencyTargetSeconds:  t.cfg.LatencyTarget.Seconds(),
			LatencyObjective:      latencyObjective,
		}
		s.each(now, t.cfg.Window, func(sl *sloSlot) {
			st.Total += sl.total
			st.Errors += sl.errors
			st.Slow += sl.slow
		})
		out = append(out, st)
	}
	t.mu.Unlock()

	for i := range out {
		st := &out[i]
		if st.Total > 0 {
			st.Availability = 1 - float64(st.Errors)/float64(st.Total)
			st.LatencyAttainment = 1 - float64(st.Errors+st.Slow)/float64(st.Total)
			st.AvailabilityBurn = burnRate(1-st.Availability, 1-st.AvailabilityObjective)
			st.LatencyBurn = burnRate(1-st.LatencyAttainment, 1-st.LatencyObjective)
		}
		st.Met = st.Total == 0 ||
			(st.Availability >= st.AvailabilityObjective && st.LatencyAttainment >= st.LatencyObjective)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Op < out[j].Op })
	return out
}

// burnRate is the observed bad fraction relative to the budgeted bad
// fraction.
func burnRate(observed, budget float64) float64 {
	if observed <= 0 {
		return 0
	}
	return observed / budget
}
