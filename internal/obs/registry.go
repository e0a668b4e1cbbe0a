package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension (e.g. {op, snapshot}).
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (must be non-negative for Prometheus semantics).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value reports the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value reports the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

type metric struct {
	name    string
	labels  []Label
	kind    metricKind
	counter *Counter
	gauge   *Gauge
	fn      func() float64
	hist    *Histogram
}

// series renders the name{labels} part of a Prometheus line, with extra
// labels (e.g. le) appended.
func (m *metric) series(extra ...Label) string {
	labels := append(append([]Label(nil), m.labels...), extra...)
	if len(labels) == 0 {
		return m.name
	}
	var b strings.Builder
	b.WriteString(m.name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// Registry holds named metrics and renders them as Prometheus text
// exposition format. Lookups are idempotent: asking for an existing
// (name, labels) pair returns the same metric, so callers can re-resolve
// instead of caching.
type Registry struct {
	mu      sync.RWMutex
	metrics []*metric
	byKey   map[string]*metric
	help    map[string]string
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*metric), help: make(map[string]string)}
}

// SetHelp attaches a # HELP line to a metric family.
func (r *Registry) SetHelp(name, help string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.help[name] = help
}

func key(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l.Key + "\x00" + l.Value
	}
	sort.Strings(parts)
	return name + "\x01" + strings.Join(parts, "\x01")
}

func (r *Registry) lookup(name string, labels []Label, mk func() *metric) *metric {
	k := key(name, labels)
	r.mu.RLock()
	m, ok := r.byKey[k]
	r.mu.RUnlock()
	if ok {
		return m
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byKey[k]; ok {
		return m
	}
	m = mk()
	m.name = name
	m.labels = append([]Label(nil), labels...)
	r.byKey[k] = m
	r.metrics = append(r.metrics, m)
	return m
}

// Counter returns (registering on first use) the counter with the given
// name and labels.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	m := r.lookup(name, labels, func() *metric {
		return &metric{kind: kindCounter, counter: &Counter{}}
	})
	return m.counter
}

// Gauge returns (registering on first use) the gauge with the given name
// and labels.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	m := r.lookup(name, labels, func() *metric {
		return &metric{kind: kindGauge, gauge: &Gauge{}}
	})
	return m.gauge
}

// GaugeFunc registers a gauge whose value is computed by fn at render
// time (for values owned elsewhere, e.g. buffer-pool hit ratios).
// Re-registering the same (name, labels) keeps the first function.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...Label) {
	r.lookup(name, labels, func() *metric {
		return &metric{kind: kindGaugeFunc, fn: fn}
	})
}

// Histogram returns (registering on first use) the histogram with the
// given name, bucket bounds, and labels. Nil bounds get
// DefLatencyBuckets.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	m := r.lookup(name, labels, func() *metric {
		return &metric{kind: kindHistogram, hist: NewHistogram(bounds)}
	})
	return m.hist
}

// AttachHistogram registers an externally owned histogram under the given
// name and labels, so a component that observes into its own histograms
// (e.g. the shard engine's per-shard fan-out timers) can surface them
// through a server's registry. Re-registering the same (name, labels)
// keeps the first histogram.
func (r *Registry) AttachHistogram(name string, h *Histogram, labels ...Label) {
	r.lookup(name, labels, func() *metric {
		return &metric{kind: kindHistogram, hist: h}
	})
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format (version 0.0.4), families sorted by name, series in
// registration order within a family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	metrics := append([]*metric(nil), r.metrics...)
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.RUnlock()

	sort.SliceStable(metrics, func(i, j int) bool { return metrics[i].name < metrics[j].name })
	lastFamily := ""
	for _, m := range metrics {
		if m.name != lastFamily {
			lastFamily = m.name
			if h := help[m.name]; h != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.name, h); err != nil {
					return err
				}
			}
			typ := map[metricKind]string{
				kindCounter:   "counter",
				kindGauge:     "gauge",
				kindGaugeFunc: "gauge",
				kindHistogram: "histogram",
			}[m.kind]
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.name, typ); err != nil {
				return err
			}
		}
		var err error
		switch m.kind {
		case kindCounter:
			_, err = fmt.Fprintf(w, "%s %d\n", m.series(), m.counter.Value())
		case kindGauge:
			_, err = fmt.Fprintf(w, "%s %s\n", m.series(), formatFloat(m.gauge.Value()))
		case kindGaugeFunc:
			_, err = fmt.Fprintf(w, "%s %s\n", m.series(), formatFloat(m.fn()))
		case kindHistogram:
			err = writePromHistogram(w, m)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func writePromHistogram(w io.Writer, m *metric) error {
	counts := m.hist.BucketCounts()
	bounds := m.hist.Bounds()
	var cum int64
	for i, b := range bounds {
		cum += counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			m.name, strings.TrimPrefix(m.series(L("le", formatFloat(b))), m.name), cum); err != nil {
			return err
		}
	}
	cum += counts[len(bounds)]
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
		m.name, strings.TrimPrefix(m.series(L("le", "+Inf")), m.name), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n",
		m.name, strings.TrimPrefix(m.series(), m.name), formatFloat(m.hist.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n",
		m.name, strings.TrimPrefix(m.series(), m.name), cum)
	return err
}
