package obs

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

// DefCollectorInterval is the default runtime sampling interval.
const DefCollectorInterval = 5 * time.Second

// DefCollectorCapacity is the default sample-ring capacity (at the
// default interval, about 21 minutes of history).
const DefCollectorCapacity = 256

// RuntimeSample is one point-in-time reading of process health:
// scheduler and memory state from the Go runtime plus whatever extra
// sources (buffer-pool occupancy, queue depths) the owner registered.
type RuntimeSample struct {
	Time           time.Time          `json:"time"`
	Goroutines     int                `json:"goroutines"`
	HeapAllocBytes uint64             `json:"heap_alloc_bytes"`
	HeapSysBytes   uint64             `json:"heap_sys_bytes"`
	NumGC          uint32             `json:"num_gc"`
	GCPauseTotal   time.Duration      `json:"gc_pause_total_ns"`
	LastGCPause    time.Duration      `json:"last_gc_pause_ns"`
	Extra          map[string]float64 `json:"extra,omitempty"`
}

// Collector samples runtime health into a fixed-capacity time-series
// ring on a fixed interval. Extra sources (buffer-pool occupancy, netq
// queue depth) are polled with each sample. Start/Stop manage the
// sampling goroutine; SampleOnce takes a synchronous sample (used by
// tests and by snapshot builders that want a fresh reading).
type Collector struct {
	interval time.Duration

	mu      sync.Mutex
	sources map[string]func() float64
	ring    recordRing[RuntimeSample]

	stop chan struct{}
	done chan struct{}
}

// NewCollector creates a collector sampling every interval (0 gets
// DefCollectorInterval) into a ring of capacity samples (0 gets
// DefCollectorCapacity). It does not start sampling; call Start.
func NewCollector(interval time.Duration, capacity int) *Collector {
	if interval <= 0 {
		interval = DefCollectorInterval
	}
	if capacity < 1 {
		capacity = DefCollectorCapacity
	}
	return &Collector{
		interval: interval,
		sources:  make(map[string]func() float64),
		ring:     newRecordRing[RuntimeSample](capacity),
	}
}

// Interval reports the sampling interval.
func (c *Collector) Interval() time.Duration { return c.interval }

// Source registers a named extra gauge polled with every sample.
// Call before Start.
func (c *Collector) Source(name string, fn func() float64) *Collector {
	c.mu.Lock()
	c.sources[name] = fn
	c.mu.Unlock()
	return c
}

// SampleOnce takes one sample synchronously, stores it in the ring and
// returns it.
func (c *Collector) SampleOnce() RuntimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := RuntimeSample{
		Time:           time.Now(),
		Goroutines:     runtime.NumGoroutine(),
		HeapAllocBytes: ms.HeapAlloc,
		HeapSysBytes:   ms.HeapSys,
		NumGC:          ms.NumGC,
		GCPauseTotal:   time.Duration(ms.PauseTotalNs),
	}
	if ms.NumGC > 0 {
		s.LastGCPause = time.Duration(ms.PauseNs[(ms.NumGC+255)%256])
	}

	c.mu.Lock()
	if len(c.sources) > 0 {
		s.Extra = make(map[string]float64, len(c.sources))
		for name, fn := range c.sources {
			s.Extra[name] = fn()
		}
	}
	_, slot := c.ring.add()
	*slot = s
	c.mu.Unlock()
	return s
}

// Start launches the sampling goroutine (taking an immediate first
// sample). Calling Start on a running collector is a no-op.
func (c *Collector) Start() {
	c.mu.Lock()
	if c.stop != nil {
		c.mu.Unlock()
		return
	}
	c.stop = make(chan struct{})
	c.done = make(chan struct{})
	stop, done := c.stop, c.done
	c.mu.Unlock()

	go func() {
		defer close(done)
		c.SampleOnce()
		t := time.NewTicker(c.interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				c.SampleOnce()
			}
		}
	}()
}

// Stop halts the sampling goroutine and waits for it to exit. Calling
// Stop on a stopped collector is a no-op.
func (c *Collector) Stop() {
	c.mu.Lock()
	stop, done := c.stop, c.done
	c.stop, c.done = nil, nil
	c.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// Latest returns the most recent sample, if any has been taken.
func (c *Collector) Latest() (RuntimeSample, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ring.next == 0 {
		return RuntimeSample{}, false
	}
	return *c.ring.at(c.ring.next - 1), true
}

// Samples returns the buffered time series, oldest first.
func (c *Collector) Samples() []RuntimeSample {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring.since(0)
}

// Register adds the collector's core readings to a registry as gauges
// over the latest sample (plus one gauge per extra source), so /metrics
// reflects the same numbers as /debug/runtime.
func (c *Collector) Register(reg *Registry) {
	reg.SetHelp("dynq_goroutines", "Goroutines at the last runtime sample.")
	reg.SetHelp("dynq_heap_alloc_bytes", "Live heap bytes at the last runtime sample.")
	reg.SetHelp("dynq_gc_pause_total_seconds", "Cumulative GC stop-the-world pause time.")
	reg.SetHelp("dynq_gc_last_pause_seconds", "Duration of the most recent GC pause.")
	latest := func(f func(RuntimeSample) float64) func() float64 {
		return func() float64 {
			s, ok := c.Latest()
			if !ok {
				return 0
			}
			return f(s)
		}
	}
	reg.GaugeFunc("dynq_goroutines", latest(func(s RuntimeSample) float64 { return float64(s.Goroutines) }))
	reg.GaugeFunc("dynq_heap_alloc_bytes", latest(func(s RuntimeSample) float64 { return float64(s.HeapAllocBytes) }))
	reg.GaugeFunc("dynq_gc_pause_total_seconds", latest(func(s RuntimeSample) float64 { return s.GCPauseTotal.Seconds() }))
	reg.GaugeFunc("dynq_gc_last_pause_seconds", latest(func(s RuntimeSample) float64 { return s.LastGCPause.Seconds() }))

	c.mu.Lock()
	names := make([]string, 0, len(c.sources))
	for name := range c.sources {
		names = append(names, name)
	}
	c.mu.Unlock()
	sort.Strings(names)
	for _, name := range names {
		n := name
		reg.GaugeFunc("dynq_runtime_"+n, latest(func(s RuntimeSample) float64 { return s.Extra[n] }))
	}
}
