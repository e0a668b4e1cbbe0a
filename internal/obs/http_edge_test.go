package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// getJSON fetches a path and decodes the body as a JSON object.
func getJSON(t *testing.T, base, path string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var doc map[string]any
	if len(body) > 0 {
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("GET %s: body not JSON: %v\n%s", path, err, body)
		}
	}
	return resp.StatusCode, doc
}

func TestDebugTraceEdgeCases(t *testing.T) {
	tr := NewTracer(8)
	tc := NewTraceContext()
	var s Span
	tc.Annotate(&s)
	s.Op = "snapshot"
	tr.Record(s)

	hs := httptest.NewServer(NewHandler(HandlerConfig{Registry: NewRegistry(), Tracer: tr}))
	defer hs.Close()

	// Malformed ids: wrong length, non-hex. Both must be 400 with a JSON
	// error body, not an empty 200.
	for _, bad := range []string{"zz", "1234", strings.Repeat("g", 32), strings.Repeat("a", 33)} {
		code, doc := getJSON(t, hs.URL, "/debug/trace?trace="+bad)
		if code != http.StatusBadRequest {
			t.Errorf("trace=%q: status %d, want 400", bad, code)
		}
		if doc["error"] == nil {
			t.Errorf("trace=%q: no error field in %v", bad, doc)
		}
	}

	// A well-formed id the tracer has never seen is a 404.
	unknown := NewTraceContext().TraceID.String()
	code, doc := getJSON(t, hs.URL, "/debug/trace?trace="+unknown)
	if code != http.StatusNotFound || doc["error"] == nil {
		t.Errorf("unknown trace: status %d doc %v, want 404 with error", code, doc)
	}

	// The known id still works.
	code, doc = getJSON(t, hs.URL, "/debug/trace?trace="+tc.TraceID.String())
	if code != 200 || doc["trace_id"] != tc.TraceID.String() {
		t.Errorf("known trace: status %d doc %v", code, doc)
	}

	// Limit bounds on the JSONL listing.
	for _, bad := range []string{"abc", "-1", "0", "100001", "9999999999999999999999"} {
		code, doc := getJSON(t, hs.URL, "/debug/trace?limit="+bad)
		if code != http.StatusBadRequest || doc["error"] == nil {
			t.Errorf("limit=%q: status %d doc %v, want 400 with error", bad, code, doc)
		}
	}
	resp, err := http.Get(hs.URL + "/debug/trace?limit=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"op":"snapshot"`) {
		t.Errorf("limit=1: %d %q", resp.StatusCode, body)
	}
}

func TestDebugSlowEventsRuntimeEndpoints(t *testing.T) {
	slow := NewSlowLog(8, time.Millisecond)
	slow.Record(Span{Op: "snapshot", WallNS: int64(50 * time.Millisecond)})
	j := NewJournal(8)
	j.Record(EventDegradedEnter, SeverityError, "write failures", nil)
	j.Record(EventDegradedExit, SeverityInfo, "operator cleared", nil)

	hs := httptest.NewServer(NewHandler(HandlerConfig{
		Registry:  NewRegistry(),
		SlowLog:   slow,
		Journal:   j,
		Telemetry: func() Telemetry { return Telemetry{GoVersion: "gotest"} },
	}))
	defer hs.Close()

	code, doc := getJSON(t, hs.URL, "/debug/slow")
	if code != 200 || doc["captured"].(float64) != 1 {
		t.Errorf("/debug/slow: %d %v", code, doc)
	}
	entries := doc["entries"].([]any)
	if len(entries) != 1 {
		t.Fatalf("/debug/slow entries = %v", entries)
	}

	code, doc = getJSON(t, hs.URL, "/debug/events")
	if code != 200 || doc["total"].(float64) != 2 {
		t.Errorf("/debug/events: %d %v", code, doc)
	}
	if evs := doc["events"].([]any); len(evs) != 2 {
		t.Errorf("/debug/events events = %v", evs)
	}
	code, doc = getJSON(t, hs.URL, "/debug/events?since=1")
	if code != 200 {
		t.Fatalf("/debug/events?since=1: %d", code)
	}
	if evs := doc["events"].([]any); len(evs) != 1 {
		t.Errorf("since=1 events = %v, want just the exit event", evs)
	}
	if code, doc := getJSON(t, hs.URL, "/debug/events?since=banana"); code != 400 || doc["error"] == nil {
		t.Errorf("bad since: %d %v, want 400 with error", code, doc)
	}
	if code, doc := getJSON(t, hs.URL, "/debug/events?limit=-3"); code != 400 || doc["error"] == nil {
		t.Errorf("bad limit: %d %v, want 400 with error", code, doc)
	}

	// The runtime reading rides in the telemetry snapshot; there is no
	// sampled series of its own.
	resp, err := http.Get(hs.URL + "/debug/runtime")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/debug/runtime: %d, want 404", resp.StatusCode)
	}

	code, doc = getJSON(t, hs.URL, "/debug/telemetry")
	if code != 200 || doc["go_version"] != "gotest" {
		t.Errorf("/debug/telemetry: %d %v", code, doc)
	}
}

// TestDebugSlowOpFilter checks /debug/slow?op=: the response keeps only
// matching entries, echoes the filter, and an unknown op yields an
// empty list (not an error).
func TestDebugSlowOpFilter(t *testing.T) {
	slow := NewSlowLog(8, time.Millisecond)
	slow.Record(Span{Op: "snapshot", WallNS: int64(40 * time.Millisecond)})
	slow.Record(Span{Op: "apply-updates", WallNS: int64(60 * time.Millisecond)})
	slow.Record(Span{Op: "apply-updates", WallNS: int64(80 * time.Millisecond)})

	hs := httptest.NewServer(NewHandler(HandlerConfig{SlowLog: slow}))
	defer hs.Close()

	code, doc := getJSON(t, hs.URL, "/debug/slow?op=apply-updates")
	if code != 200 {
		t.Fatalf("/debug/slow?op=: %d %v", code, doc)
	}
	if doc["op"] != "apply-updates" {
		t.Errorf("response does not echo the filter: %v", doc["op"])
	}
	entries := doc["entries"].([]any)
	if len(entries) != 2 {
		t.Fatalf("filtered entries = %d, want 2: %v", len(entries), entries)
	}
	for _, e := range entries {
		span := e.(map[string]any)["span"].(map[string]any)
		if span["op"] != "apply-updates" {
			t.Errorf("filter leaked op %v", span["op"])
		}
	}

	if code, doc := getJSON(t, hs.URL, "/debug/slow?op=missing"); code != 200 || len(doc["entries"].([]any)) != 0 {
		t.Errorf("unknown op: %d %v, want 200 with empty entries", code, doc)
	}

	// Unfiltered view still shows every class, and omits the op key.
	code, doc = getJSON(t, hs.URL, "/debug/slow")
	if code != 200 || len(doc["entries"].([]any)) != 3 {
		t.Errorf("unfiltered: %d %v, want 3 entries", code, doc)
	}
	if _, ok := doc["op"]; ok {
		t.Errorf("unfiltered response carries an op key: %v", doc)
	}
}
