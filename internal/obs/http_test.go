package obs

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestHandlerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("requests_total").Add(5)
	tr := NewTracer(4)
	tr.Record(Span{Op: "snapshot"})

	hs := httptest.NewServer(NewHandler(HandlerConfig{Registry: reg, Tracer: tr}))
	defer hs.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != 200 || !strings.Contains(body, "requests_total 5") {
		t.Errorf("/metrics: %d %q", code, body)
	}
	// The registry has one rendering: no JSON mirror, no sampled runtime
	// series (the runtime gauges are read when /metrics renders).
	for _, gone := range []string{"/debug/vars", "/debug/runtime"} {
		if code, _ := get(gone); code != http.StatusNotFound {
			t.Errorf("%s: %d, want 404", gone, code)
		}
	}
	code, body = get("/debug/trace")
	if code != 200 || !strings.Contains(body, `"op":"snapshot"`) {
		t.Errorf("/debug/trace: %d %q", code, body)
	}
	tc := NewTraceContext()
	var traced Span
	tc.Annotate(&traced)
	traced.Op = "knn"
	tr.Record(traced)
	code, body = get("/debug/trace?trace=" + tc.TraceID.String())
	if code != 200 {
		t.Fatalf("/debug/trace?trace=: %d", code)
	}
	var td TraceDoc
	if err := json.Unmarshal([]byte(body), &td); err != nil {
		t.Fatalf("correlated trace not JSON: %v", err)
	}
	if td.TraceID != tc.TraceID.String() || len(td.Spans) != 1 || td.Spans[0].Op != "knn" {
		t.Errorf("correlated trace = %+v", td)
	}
	code, body = get("/debug/trace?format=json")
	var docs []TraceDoc
	if code != 200 || json.Unmarshal([]byte(body), &docs) != nil || len(docs) != 2 {
		t.Errorf("/debug/trace?format=json: %d %q", code, body)
	}
	code, _ = get("/debug/pprof/cmdline")
	if code != 200 {
		t.Errorf("/debug/pprof/cmdline: %d", code)
	}
	code, _ = get("/debug/pprof/")
	if code != 200 {
		t.Errorf("/debug/pprof/ index: %d", code)
	}
}

func TestHealthzEndpoint(t *testing.T) {
	var unhealthy error
	hs := httptest.NewServer(NewHandler(HandlerConfig{Registry: NewRegistry(), Health: func() error { return unhealthy }}))
	defer hs.Close()

	get := func() (int, string) {
		t.Helper()
		resp, err := http.Get(hs.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, body := get()
	if code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("healthy probe: %d %q", code, body)
	}
	unhealthy = errors.New("database degraded to read-only")
	code, body = get()
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "read-only") {
		t.Errorf("unhealthy probe: %d %q", code, body)
	}
	unhealthy = nil
	if code, _ := get(); code != 200 {
		t.Errorf("recovered probe: %d", code)
	}

	// Without a health func the probe always says ok.
	plain := httptest.NewServer(NewHandler(HandlerConfig{Registry: NewRegistry()}))
	defer plain.Close()
	resp, err := http.Get(plain.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("handler without a health func /healthz: %d, want always ok", resp.StatusCode)
	}
}
