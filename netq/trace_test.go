package netq

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"dynq"
	"dynq/internal/obs"
)

// startServerKeep is startServer, but also returns the server so tests
// can inspect its tracer and registry.
func startServerKeep(t *testing.T, db dynq.Database) (srv *Server, addr string, stop func()) {
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
	return srv, l.Addr().String(), func() {
		l.Close()
		srv.Close()
		wg.Wait()
	}
}

func shardedTestDB(t *testing.T, shards int) *dynq.DB {
	t.Helper()
	db, err := dynq.OpenSharded(dynq.ShardOptions{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	for i := 0; i < 200; i++ {
		x := float64(i % 100)
		err := db.Insert(dynq.ObjectID(i), dynq.Segment{
			T0: 0, T1: 100,
			From: []float64{x, 50}, To: []float64{x, 50},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestTracePropagationAcrossWireAndShards is the acceptance path: one
// SnapshotCtx through the netq client against a 4-shard server must
// yield a single trace containing the caller's span as parent of the
// server op span, and one span per shard, each shard span carrying
// pager/rtree/engine stage deltas.
func TestTracePropagationAcrossWireAndShards(t *testing.T) {
	const shards = 4
	db := shardedTestDB(t, shards)
	srv, addr, stop := startServerKeep(t, db)
	defer stop()

	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	tc := obs.NewTraceContext()
	traceID, clientSpan := tc.TraceID.String(), tc.SpanID.String()
	view := dynq.Rect{Min: []float64{0, 0}, Max: []float64{100, 100}}
	rs, err := cl.SnapshotCtx(obs.ContextWithTrace(context.Background(), tc), view, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 {
		t.Fatal("snapshot returned nothing; the trace would be trivial")
	}

	// Server side: the op span continues the caller's trace, and every
	// shard span is its child.
	spans := srv.Tracer().Trace(traceID)
	if len(spans) != 1+shards {
		t.Fatalf("server trace has %d spans, want %d: %+v", len(spans), 1+shards, spans)
	}
	var opSpan string
	seenShards := make(map[int]bool)
	for _, s := range spans {
		switch s.Op {
		case "snapshot":
			if s.ParentID != clientSpan {
				t.Errorf("op span parent = %q, want caller span %s", s.ParentID, clientSpan)
			}
			if s.Shard != obs.NoShard {
				t.Errorf("op span shard = %d", s.Shard)
			}
			opSpan = s.SpanID
		case "snapshot/shard":
			seenShards[s.Shard] = true
			if len(s.Stages) != 3 || s.Stages[0].Stage != "pager" ||
				s.Stages[1].Stage != "rtree" || s.Stages[2].Stage != "snapshot" {
				t.Errorf("shard %d stages = %+v", s.Shard, s.Stages)
			}
		default:
			t.Errorf("unexpected span op %q in trace", s.Op)
		}
	}
	if opSpan == "" {
		t.Fatal("no server op span in trace")
	}
	if len(seenShards) != shards {
		t.Fatalf("shard spans cover %d shards, want %d", len(seenShards), shards)
	}
	for _, s := range spans {
		if s.Op == "snapshot/shard" && s.ParentID != opSpan {
			t.Errorf("shard %d span parent = %q, want op span %s", s.Shard, s.ParentID, opSpan)
		}
	}

	// /debug/trace?trace=<id> serves the correlated trace as JSON that
	// round-trips through encoding/json.
	hs := httptest.NewServer(obs.NewHandler(obs.HandlerConfig{Registry: srv.Registry(), Tracer: srv.Tracer()}))
	defer hs.Close()
	resp, err := http.Get(hs.URL + "/debug/trace?trace=" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var doc obs.TraceDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("/debug/trace?trace= not JSON: %v\n%s", err, body)
	}
	if doc.TraceID != traceID || len(doc.Spans) != 1+shards {
		t.Errorf("correlated doc: trace=%s spans=%d, want %s / %d",
			doc.TraceID, len(doc.Spans), traceID, 1+shards)
	}
	re, err := json.Marshal(doc)
	if err != nil || len(re) == 0 {
		t.Errorf("re-marshal failed: %v", err)
	}
}

// TestCallerTraceContextIsUsed checks that a trace context supplied by
// the caller (rather than auto-generated) flows through to the server.
func TestCallerTraceContextIsUsed(t *testing.T) {
	db := testDB(t)
	srv, addr, stop := startServerKeep(t, db)
	defer stop()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	tc := obs.NewTraceContext()
	ctx := obs.ContextWithTrace(context.Background(), tc)
	if _, err := cl.KNNCtx(ctx, []float64{50, 50}, 0, 3); err != nil {
		t.Fatal(err)
	}
	spans := srv.Tracer().Trace(tc.TraceID.String())
	if len(spans) != 1 {
		t.Fatalf("trace %s has %d server spans, want 1", tc.TraceID, len(spans))
	}
	if spans[0].Op != "knn" || spans[0].ParentID != tc.SpanID.String() {
		t.Errorf("op span = %+v, want knn parented to %s", spans[0], tc.SpanID)
	}
}
