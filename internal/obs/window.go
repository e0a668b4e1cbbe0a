package obs

import (
	"sort"
	"sync"
	"time"
)

// DefWindows are the rolling windows reported by default alongside
// cumulative histogram totals.
func DefWindows() []time.Duration {
	return []time.Duration{time.Minute, 5 * time.Minute}
}

// DefWindowInterval is the default sub-histogram rotation interval: the
// resolution of the rolling windows.
const DefWindowInterval = 10 * time.Second

// WindowSnapshot is the merged view of one rolling window: the
// observation count, sum, and percentiles over (approximately) the last
// Window of wall time, at the rotation interval's resolution.
type WindowSnapshot struct {
	Window time.Duration `json:"window"`
	Count  int64         `json:"count"`
	Sum    float64       `json:"sum"`
	P50    float64       `json:"p50"`
	P95    float64       `json:"p95"`
	P99    float64       `json:"p99"`
}

// windowSlot is one rotation interval's worth of bucketed observations.
type windowSlot struct {
	counts []int64 // len(bounds)+1, last is +Inf
	count  int64
	sum    float64
}

func (s *windowSlot) reset() {
	clear(s.counts)
	s.count = 0
	s.sum = 0
}

// WindowedHistogram pairs a cumulative Histogram with a ring of bucketed
// sub-histograms rotated on a fixed interval, so callers can extract
// rolling-window percentiles ("p99 over the last minute") alongside the
// since-boot totals. Observations land in both the cumulative histogram
// and the current sub-histogram; a window snapshot merges the slots that
// overlap the requested window. Rotation is lazy — driven by Observe and
// Snapshot calls — so an idle histogram costs nothing.
//
// All methods are safe for concurrent use. The windowed side takes a
// mutex per Observe; the cumulative side stays lock-free.
type WindowedHistogram struct {
	cum *Histogram

	mu     sync.Mutex
	bounds []float64
	slots  slotRing[windowSlot, *windowSlot]

	now func() time.Time // injectable clock for tests
}

// NewWindowedHistogram creates a windowed histogram over the given
// bucket bounds (nil gets DefLatencyBuckets), rotating sub-histograms
// every interval (0 gets DefWindowInterval) with enough ring capacity to
// answer windows up to maxWindow (0 gets the largest of DefWindows).
func NewWindowedHistogram(bounds []float64, interval, maxWindow time.Duration) *WindowedHistogram {
	if len(bounds) == 0 {
		bounds = DefLatencyBuckets()
	}
	if interval <= 0 {
		interval = DefWindowInterval
	}
	if maxWindow <= 0 {
		for _, w := range DefWindows() {
			if w > maxWindow {
				maxWindow = w
			}
		}
	}
	if maxWindow < interval {
		maxWindow = interval
	}
	return &WindowedHistogram{
		cum:    NewHistogram(bounds),
		bounds: append([]float64(nil), bounds...),
		slots: newSlotRing[windowSlot](interval, maxWindow, func() windowSlot {
			return windowSlot{counts: make([]int64, len(bounds)+1)}
		}),
		now: time.Now,
	}
}

// WithClock replaces the wall clock (tests only). Call before observing.
func (w *WindowedHistogram) WithClock(now func() time.Time) *WindowedHistogram {
	w.now = now
	return w
}

// Observe records one value into both the cumulative histogram and the
// current rotation slot.
func (w *WindowedHistogram) Observe(v float64) {
	w.cum.Observe(v)
	i := sort.SearchFloat64s(w.bounds, v)
	w.mu.Lock()
	slot := w.slots.current(w.now())
	slot.counts[i]++
	slot.count++
	slot.sum += v
	w.mu.Unlock()
}

// ObserveDuration records a duration in seconds.
func (w *WindowedHistogram) ObserveDuration(d time.Duration) { w.Observe(d.Seconds()) }

// Cumulative exposes the since-boot histogram (for registry attachment).
func (w *WindowedHistogram) Cumulative() *Histogram { return w.cum }

// Snapshot merges the rotation slots overlapping the last `window` of
// wall time into one WindowSnapshot. Windows longer than the ring's
// capacity are clamped to it.
func (w *WindowedHistogram) Snapshot(window time.Duration) WindowSnapshot {
	if window <= 0 {
		window = w.slots.interval
	}
	snap := WindowSnapshot{Window: window}
	merged := make([]int64, len(w.bounds)+1)

	w.mu.Lock()
	w.slots.each(w.now(), window, func(s *windowSlot) {
		for b, c := range s.counts {
			merged[b] += c
		}
		snap.Count += s.count
		snap.Sum += s.sum
	})
	w.mu.Unlock()

	snap.P50 = quantileFromCounts(w.bounds, merged, 0.50)
	snap.P95 = quantileFromCounts(w.bounds, merged, 0.95)
	snap.P99 = quantileFromCounts(w.bounds, merged, 0.99)
	return snap
}

// RegisterWindowGauges registers one render-time gauge under name for
// each of the given rolling windows and each quantile (0.5, 0.95, 0.99),
// labelled with labels plus {window, quantile}, in that order.
func (w *WindowedHistogram) RegisterWindowGauges(reg *Registry, name string, windows []time.Duration, labels ...Label) {
	quantiles := []struct {
		name string
		pick func(WindowSnapshot) float64
	}{
		{"0.5", func(s WindowSnapshot) float64 { return s.P50 }},
		{"0.95", func(s WindowSnapshot) float64 { return s.P95 }},
		{"0.99", func(s WindowSnapshot) float64 { return s.P99 }},
	}
	for _, win := range windows {
		for _, q := range quantiles {
			series := append(append([]Label(nil), labels...), L("window", win.String()), L("quantile", q.name))
			reg.GaugeFunc(name, func() float64 { return q.pick(w.Snapshot(win)) }, series...)
		}
	}
}
