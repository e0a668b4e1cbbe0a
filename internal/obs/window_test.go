package obs

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is a mutable clock for driving window rotation in tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestWindowedHistogramRollingDivergesFromCumulative(t *testing.T) {
	clk := newFakeClock()
	w := NewWindowedHistogram(nil, 10*time.Second, time.Minute).WithClock(clk.Now)

	// A burst of slow observations, then a quiet interval, then fast ones.
	for i := 0; i < 100; i++ {
		w.Observe(1.0) // 1s — lands in an old slot
	}
	clk.Advance(2 * time.Minute) // slow burst ages out of the 1m window
	for i := 0; i < 100; i++ {
		w.Observe(0.001) // 1ms — recent
	}

	cum := w.Cumulative()
	if got := cum.Count(); got != 200 {
		t.Fatalf("cumulative count = %d, want 200", got)
	}
	if p99 := cum.Quantile(0.99); p99 < 0.5 {
		t.Errorf("cumulative p99 = %v, want >= 0.5 (half the observations were 1s)", p99)
	}
	snap := w.Snapshot(time.Minute)
	if snap.Count != 100 {
		t.Errorf("1m window count = %d, want 100 (slow burst aged out)", snap.Count)
	}
	if snap.P99 > 0.01 {
		t.Errorf("1m window p99 = %v, want <= 0.01 (only 1ms observations remain)", snap.P99)
	}
}

func TestWindowedHistogramRotationClearsExpiredSlots(t *testing.T) {
	clk := newFakeClock()
	w := NewWindowedHistogram(nil, time.Second, 5*time.Second).WithClock(clk.Now)

	w.Observe(0.5)
	if got := w.Snapshot(5 * time.Second).Count; got != 1 {
		t.Fatalf("count after observe = %d, want 1", got)
	}
	// Step just past the window: the observation expires.
	clk.Advance(7 * time.Second)
	if got := w.Snapshot(5 * time.Second).Count; got != 0 {
		t.Errorf("count after expiry = %d, want 0", got)
	}
	// A very long idle gap (more than the whole ring) must clear cleanly.
	w.Observe(0.25)
	clk.Advance(time.Hour)
	if got := w.Snapshot(5 * time.Second).Count; got != 0 {
		t.Errorf("count after long idle = %d, want 0", got)
	}
	w.Observe(0.125)
	snap := w.Snapshot(5 * time.Second)
	if snap.Count != 1 || snap.Sum != 0.125 {
		t.Errorf("fresh slot after long idle = %+v, want count 1 sum 0.125", snap)
	}
	// Cumulative never forgets.
	if got := w.Cumulative().Count(); got != 3 {
		t.Errorf("cumulative count = %d, want 3", got)
	}
}

func TestWindowedHistogramPartialWindow(t *testing.T) {
	clk := newFakeClock()
	w := NewWindowedHistogram(nil, 10*time.Second, 5*time.Minute).WithClock(clk.Now)

	for i := 0; i < 60; i++ {
		w.Observe(0.002)
		clk.Advance(time.Second)
	}
	// 60 observations over 60s: the 1m window sees (approximately) all of
	// them, the 5m window exactly all.
	if got := w.Snapshot(5 * time.Minute).Count; got != 60 {
		t.Errorf("5m count = %d, want 60", got)
	}
	oneMin := w.Snapshot(time.Minute).Count
	if oneMin < 50 || oneMin > 60 {
		t.Errorf("1m count = %d, want within [50, 60] (slot-resolution approximation)", oneMin)
	}
}

func TestWindowedHistogramConcurrent(t *testing.T) {
	w := NewWindowedHistogram(nil, time.Millisecond, 50*time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				w.Observe(float64(i%100) / 1000)
				if i%100 == 0 {
					w.Snapshot(10 * time.Millisecond)
					w.Snapshot(50 * time.Millisecond)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := w.Cumulative().Count(); got != 16000 {
		t.Errorf("cumulative count = %d, want 16000", got)
	}
}

func TestSLOTrackerAttainmentAndBurn(t *testing.T) {
	clk := newFakeClock()
	tr := NewSLOTracker(time.Minute, 100*time.Millisecond).WithClock(clk.Now)

	// 100 requests: 2 errors, 20 slow successes, 78 fast successes.
	for i := 0; i < 78; i++ {
		tr.Record("snapshot", 10*time.Millisecond, false)
	}
	for i := 0; i < 20; i++ {
		tr.Record("snapshot", 500*time.Millisecond, false)
	}
	for i := 0; i < 2; i++ {
		tr.Record("snapshot", 10*time.Millisecond, true)
	}
	sts := tr.Status()
	if len(sts) != 1 {
		t.Fatalf("status count = %d, want 1", len(sts))
	}
	st := sts[0]
	if st.Total != 100 || st.Errors != 2 || st.Slow != 20 {
		t.Fatalf("counts = total %d errors %d slow %d, want 100/2/20", st.Total, st.Errors, st.Slow)
	}
	if got, want := st.Availability, 0.98; !closeTo(got, want) {
		t.Errorf("availability = %v, want %v", got, want)
	}
	if got, want := st.LatencyAttainment, 0.78; !closeTo(got, want) {
		t.Errorf("latency attainment = %v, want %v", got, want)
	}
	// Availability budget is 0.1%, observed error rate 2%: burn = 20.
	if got, want := st.AvailabilityBurn, 20.0; !closeTo(got, want) {
		t.Errorf("availability burn = %v, want %v", got, want)
	}
	// Latency budget is 1%, observed bad rate 22%: burn = 22.
	if got, want := st.LatencyBurn, 22.0; !closeTo(got, want) {
		t.Errorf("latency burn = %v, want %v", got, want)
	}
	if st.Met {
		t.Error("Met = true with both objectives missed")
	}

	// The bad minute ages out; a healthy minute follows.
	clk.Advance(2 * time.Minute)
	for i := 0; i < 50; i++ {
		tr.Record("snapshot", 5*time.Millisecond, false)
	}
	st = tr.Status()[0]
	if st.Total != 50 || st.Errors != 0 || st.Slow != 0 || !st.Met {
		t.Errorf("recovered window = %+v, want 50 clean requests with objectives met", st)
	}
	if st.AvailabilityBurn != 0 || st.LatencyBurn != 0 {
		t.Errorf("recovered burn rates = %v/%v, want 0/0", st.AvailabilityBurn, st.LatencyBurn)
	}
}

func TestSLOTrackerNoTraffic(t *testing.T) {
	tr := NewSLOTracker(5*time.Minute, 100*time.Millisecond)
	if sts := tr.Status(); len(sts) != 0 {
		t.Errorf("status with no traffic = %v, want empty", sts)
	}
	tr.Record("knn", time.Millisecond, false)
	st := tr.Status()[0]
	if !st.Met || st.Total != 1 {
		t.Errorf("single clean request: %+v, want met with total 1", st)
	}
}

func TestSLOTrackerConcurrent(t *testing.T) {
	tr := NewSLOTracker(time.Second, 100*time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ops := []string{"snapshot", "knn", "pdq-fetch"}
			for i := 0; i < 1000; i++ {
				tr.Record(ops[i%len(ops)], time.Duration(i%200)*time.Millisecond, i%97 == 0)
				if i%250 == 0 {
					tr.Status()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := len(tr.Status()); got != 3 {
		t.Errorf("tracked ops = %d, want 3", got)
	}
}

func closeTo(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-9
}
