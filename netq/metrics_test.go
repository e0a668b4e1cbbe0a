package netq

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dynq"
	"dynq/internal/obs"
)

// startInstrumentedServer is like startServer but also exposes the
// *Server (for registry/tracer access) and an HTTP observability
// endpoint over it.
func startInstrumentedServer(t *testing.T, db *dynq.DB) (addr string, srv *Server, hs *httptest.Server, stop func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv = NewServer(db)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv.Serve(l)
	}()
	hs = httptest.NewServer(obs.NewHandler(obs.HandlerConfig{Registry: srv.Registry(), Tracer: srv.Tracer()}))
	return l.Addr().String(), srv, hs, func() {
		hs.Close()
		l.Close()
		srv.Close()
		wg.Wait()
	}
}

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

// TestMetricsEndToEnd drives a live server over the wire, then scrapes
// the observability endpoints and checks the acceptance signals: per-op
// request counters, a per-op latency histogram with extractable
// percentiles, the buffer-pool hit ratio, the active-connection gauge,
// per-stage trace spans for PDQ and NPDQ, and a responding pprof
// profile.
func TestMetricsEndToEnd(t *testing.T) {
	db := testDB(t)
	addr, srv, hs, stop := startInstrumentedServer(t, db)
	defer stop()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// One op of each interesting kind.
	view := dynq.Rect{Min: []float64{0, 0}, Max: []float64{30, 100}}
	if _, err := cl.Snapshot(view, 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.NonPredictive(view, 0, 1); err != nil {
		t.Fatal(err)
	}
	wps := []dynq.Waypoint{
		{T: 0, View: dynq.Rect{Min: []float64{0, 40}, Max: []float64{10, 60}}},
		{T: 10, View: dynq.Rect{Min: []float64{40, 40}, Max: []float64{50, 60}}},
	}
	if _, err := cl.FetchPredictive(0, 5); !errors.Is(err, ErrNoSession) { // counted as a pdq-fetch error
		t.Fatalf("fetch before start: err = %v, want ErrNoSession", err)
	}
	if err := cl.StartPredictive(wps, false); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.FetchPredictive(0, 5); err != nil {
		t.Fatal(err)
	}
	cl.roundTrip(context.Background(), Request{Op: "bogus"}) // counted as unknown op

	code, body := httpGet(t, hs.URL+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics status = %d", code)
	}
	for _, want := range []string{
		`netq_requests_total{op="snapshot"} 1`,
		`netq_requests_total{op="npdq"} 1`,
		`netq_requests_total{op="pdq-start"} 1`,
		`netq_requests_total{op="pdq-fetch"} 2`,
		`netq_request_errors_total{op="pdq-fetch"} 1`,
		`netq_request_seconds_bucket{op="snapshot",le="+Inf"} 1`,
		`netq_request_seconds_count{op="snapshot"} 1`,
		`netq_active_connections 1`,
		`netq_active_sessions{kind="pdq"} 1`,
		`netq_unknown_ops_total 1`,
		`pager_buffer_hit_ratio`,
		`dynq_page_reads_total`,
		`dynq_shards 1`, // a one-unit database has per-unit series too
		`dynq_shard_page_reads_total{shard="0"}`,
		`# TYPE netq_request_seconds histogram`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Percentiles are extractable from the per-op histogram.
	h := srv.Registry().Histogram("netq_request_seconds", nil, obs.L("op", "snapshot"))
	if h.Count() != 1 {
		t.Fatalf("snapshot latency count = %d", h.Count())
	}
	for _, q := range []float64{0.50, 0.95, 0.99} {
		if v := h.Quantile(q); v <= 0 {
			t.Errorf("p%d = %g, want > 0", int(q*100), v)
		}
	}

	// /debug/vars renders the same registry as JSON.
	code, body = httpGet(t, hs.URL+"/debug/vars")
	if code != 200 {
		t.Fatalf("/debug/vars status = %d", code)
	}
	var vars struct {
		Metrics map[string]any `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if vars.Metrics[`netq_requests_total{op="snapshot"}`] != float64(1) {
		t.Errorf("vars snapshot requests = %v", vars.Metrics[`netq_requests_total{op="snapshot"}`])
	}

	// /debug/trace dumps spans with per-stage deltas for PDQ and NPDQ.
	code, body = httpGet(t, hs.URL+"/debug/trace")
	if code != 200 {
		t.Fatalf("/debug/trace status = %d", code)
	}
	stages := map[string][]obs.StageDelta{}
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		var span obs.Span
		if err := json.Unmarshal(sc.Bytes(), &span); err != nil {
			t.Fatalf("trace line not JSON: %v (%s)", err, sc.Text())
		}
		if len(span.Stages) > 0 {
			stages[span.Op] = span.Stages
		}
	}
	for _, op := range []string{"npdq", "pdq-fetch"} {
		st, ok := stages[op]
		if !ok {
			t.Fatalf("no traced span with stages for op %q", op)
		}
		if len(st) != 3 || st[0].Stage != "pager" || st[1].Stage != "rtree" {
			t.Fatalf("op %q stages = %+v", op, st)
		}
		if st[1].Delta.Reads() == 0 {
			t.Errorf("op %q traced zero index reads", op)
		}
	}

	// pprof responds (a 1-second CPU profile exercises the real path).
	code, _ = httpGet(t, hs.URL+"/debug/pprof/profile?seconds=1")
	if code != 200 {
		t.Errorf("/debug/pprof/profile status = %d", code)
	}
}

func TestTypedErrorsOverTheWire(t *testing.T) {
	db := testDB(t)
	addr, srv, hs, stop := startInstrumentedServer(t, db)
	defer stop()
	_ = hs
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Unknown op reconstructs as *UnknownOpError.
	_, err = cl.roundTrip(context.Background(), Request{Op: "flux-capacitor"})
	var uo *UnknownOpError
	if !errors.As(err, &uo) || uo.Op != "flux-capacitor" {
		t.Errorf("unknown op error = %#v, want UnknownOpError", err)
	}

	// Session ops before start match ErrNoSession.
	if _, err := cl.FetchPredictive(0, 1); !errors.Is(err, ErrNoSession) {
		t.Errorf("pdq-fetch error = %#v, want ErrNoSession", err)
	}

	// The rejections are counted in the registry.
	if got := srv.Registry().Counter("netq_unknown_ops_total").Value(); got != 1 {
		t.Errorf("unknown ops counted = %d, want 1", got)
	}
	if got := srv.Registry().Counter("netq_request_errors_total", obs.L("op", string(OpPDQFetch))).Value(); got != 1 {
		t.Errorf("pdq-fetch errors counted = %d, want 1", got)
	}
}

// TestSessionGauges checks that session lifecycle keeps the gauges
// balanced: start, restart, and disconnect.
func TestSessionGauges(t *testing.T) {
	db := testDB(t)
	addr, srv, hs, stop := startInstrumentedServer(t, db)
	defer stop()
	_ = hs
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}

	pdqGauge := srv.Registry().Gauge("netq_active_sessions", obs.L("kind", "pdq"))
	wps := []dynq.Waypoint{
		{T: 0, View: dynq.Rect{Min: []float64{0, 40}, Max: []float64{10, 60}}},
		{T: 10, View: dynq.Rect{Min: []float64{40, 40}, Max: []float64{50, 60}}},
	}
	if err := cl.StartPredictive(wps, false); err != nil {
		t.Fatal(err)
	}
	if got := pdqGauge.Value(); got != 1 {
		t.Errorf("after start: pdq sessions = %g, want 1", got)
	}
	// Restarting replaces, not leaks.
	if err := cl.StartPredictive(wps, false); err != nil {
		t.Fatal(err)
	}
	if got := pdqGauge.Value(); got != 1 {
		t.Errorf("after restart: pdq sessions = %g, want 1", got)
	}
	cl.Close()
	// The server notices the disconnect asynchronously.
	deadline := time.Now().Add(2 * time.Second)
	for pdqGauge.Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("after close: pdq sessions = %g, want 0", pdqGauge.Value())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
