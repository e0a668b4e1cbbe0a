package obs

import (
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.SetHelp("requests_total", "Total requests.")
	r.Counter("requests_total", L("op", "snapshot")).Add(3)
	r.Counter("requests_total", L("op", "knn")).Inc()
	r.Gauge("active_connections").Add(2)
	r.GaugeFunc("hit_ratio", func() float64 { return 0.25 })
	h := r.Histogram("latency_seconds", []float64{0.5, 1}, L("op", "snapshot"))
	h.Observe(0.25)
	h.Observe(0.5)
	h.Observe(2)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE active_connections gauge
active_connections 2
# TYPE hit_ratio gauge
hit_ratio 0.25
# TYPE latency_seconds histogram
latency_seconds_bucket{op="snapshot",le="0.5"} 2
latency_seconds_bucket{op="snapshot",le="1"} 2
latency_seconds_bucket{op="snapshot",le="+Inf"} 3
latency_seconds_sum{op="snapshot"} 2.75
latency_seconds_count{op="snapshot"} 3
# HELP requests_total Total requests.
# TYPE requests_total counter
requests_total{op="snapshot"} 3
requests_total{op="knn"} 1
`
	if got := b.String(); got != want {
		t.Errorf("prometheus text:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestRegistryIdempotentLookup(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x", L("k", "v"))
	b := r.Counter("x", L("k", "v"))
	if a != b {
		t.Error("same (name, labels) should return the same counter")
	}
	c := r.Counter("x", L("k", "w"))
	if a == c {
		t.Error("different labels should return a different counter")
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter("hits").Inc()
				r.Histogram("lat", nil).Observe(0.001)
				var b strings.Builder
				if i%100 == 0 {
					r.WritePrometheus(&b)
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits").Value(); got != 4000 {
		t.Errorf("hits = %d, want 4000", got)
	}
}

// TestRuntimeGaugesReadAtRender checks that the runtime gauges read the
// Go runtime when /metrics renders: goroutines started after
// registration show in the next rendering (with slack for goroutines
// other tests left behind that exit meanwhile).
func TestRuntimeGaugesReadAtRender(t *testing.T) {
	reg := NewRegistry()
	RegisterRuntime(reg)
	goroutines := func() float64 {
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(b.String(), "\n") {
			if v, ok := strings.CutPrefix(line, "dynq_goroutines "); ok {
				n, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatal(err)
				}
				return n
			}
		}
		t.Fatalf("no dynq_goroutines line:\n%s", b.String())
		return 0
	}
	const started = 64
	before := goroutines()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for range started {
		wg.Add(1)
		go func() { defer wg.Done(); <-stop }()
	}
	if after := goroutines(); after < before+started/2 {
		t.Errorf("dynq_goroutines = %v after starting %d beside %v", after, started, before)
	}
	close(stop)
	wg.Wait()
	if s := ReadRuntime(); s.Goroutines <= 0 || s.HeapAllocBytes == 0 || s.Time.IsZero() {
		t.Errorf("ReadRuntime = %+v, want live readings", s)
	}
}
