package obs

import (
	"runtime"
	"time"
)

// RuntimeSample is one point-in-time reading of process health:
// scheduler and memory state from the Go runtime.
type RuntimeSample struct {
	Time           time.Time     `json:"time"`
	Goroutines     int           `json:"goroutines"`
	HeapAllocBytes uint64        `json:"heap_alloc_bytes"`
	HeapSysBytes   uint64        `json:"heap_sys_bytes"`
	NumGC          uint32        `json:"num_gc"`
	GCPauseTotal   time.Duration `json:"gc_pause_total_ns"`
	LastGCPause    time.Duration `json:"last_gc_pause_ns"`
}

// ReadRuntime reads the Go runtime's scheduler and memory state now.
// It runs runtime.ReadMemStats, so it is for a scrape or a snapshot,
// not a hot path.
func ReadRuntime() RuntimeSample {
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
	return s
}

// RegisterRuntime adds the runtime readings to a registry as gauges
// read when /metrics is rendered.
func RegisterRuntime(reg *Registry) {
	reg.SetHelp("dynq_goroutines", "Goroutines now.")
	reg.SetHelp("dynq_heap_alloc_bytes", "Live heap bytes now.")
	reg.SetHelp("dynq_gc_pause_total_seconds", "Cumulative GC stop-the-world pause time.")
	reg.SetHelp("dynq_gc_last_pause_seconds", "Duration of the most recent GC pause.")
	read := func(f func(RuntimeSample) float64) func() float64 {
		return func() float64 { return f(ReadRuntime()) }
	}
	reg.GaugeFunc("dynq_goroutines", func() float64 { return float64(runtime.NumGoroutine()) })
	reg.GaugeFunc("dynq_heap_alloc_bytes", read(func(s RuntimeSample) float64 { return float64(s.HeapAllocBytes) }))
	reg.GaugeFunc("dynq_gc_pause_total_seconds", read(func(s RuntimeSample) float64 { return s.GCPauseTotal.Seconds() }))
	reg.GaugeFunc("dynq_gc_last_pause_seconds", read(func(s RuntimeSample) float64 { return s.LastGCPause.Seconds() }))
}
