package netq

import (
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dynq"
	"dynq/internal/obs"
)

// fakeClock drives a WindowedHistogram deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
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

// TestTelemetryOpOverTheWire drives real traffic through a server and
// fetches the stats snapshot via the wire op, checking that per-op
// windows, SLO state, runtime health, and events all arrive.
func TestTelemetryOpOverTheWire(t *testing.T) {
	db := testDB(t)
	addr, stop := startServer(t, db)
	defer stop()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	view := dynq.Rect{Min: []float64{0, 0}, Max: []float64{50, 100}}
	for i := 0; i < 20; i++ {
		if _, err := cl.Snapshot(view, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Stats(); err != nil {
		t.Fatal(err)
	}

	tel, err := cl.Telemetry()
	if err != nil {
		t.Fatal(err)
	}
	if tel.Addr != addr {
		t.Errorf("Addr = %q, want %q", tel.Addr, addr)
	}
	if tel.GoVersion == "" || tel.UptimeSeconds <= 0 {
		t.Errorf("missing build/uptime info: %+v", tel)
	}
	if tel.ActiveConns != 1 {
		t.Errorf("ActiveConns = %d, want 1", tel.ActiveConns)
	}
	var snap *obs.OpTelemetry
	for i := range tel.Ops {
		if tel.Ops[i].Op == string(OpSnapshot) {
			snap = &tel.Ops[i]
		}
	}
	if snap == nil {
		t.Fatalf("no snapshot op in telemetry: %+v", tel.Ops)
	}
	if snap.Count != 20 {
		t.Errorf("snapshot count = %d, want 20", snap.Count)
	}
	if len(snap.Windows) != len(obs.DefWindows()) {
		t.Fatalf("snapshot windows = %d, want %d", len(snap.Windows), len(obs.DefWindows()))
	}
	// All traffic just happened, so the shortest window holds all of it
	// and its percentiles are populated.
	if w := snap.Windows[0]; w.Count != 20 || w.P99 <= 0 {
		t.Errorf("1m window = %+v, want count 20 with positive p99", w)
	}
	if len(tel.SLOs) == 0 {
		t.Error("no SLO status in telemetry")
	}
	for _, slo := range tel.SLOs {
		if slo.Op == string(OpSnapshot) && (!slo.Met || slo.Availability != 1) {
			t.Errorf("snapshot SLO not met with error-free traffic: %+v", slo)
		}
	}
	if tel.Runtime == nil || tel.Runtime.Goroutines <= 0 {
		t.Errorf("runtime sample missing: %+v", tel.Runtime)
	}
	if _, ok := tel.Runtime.Extra["buffer_frames"]; !ok {
		t.Errorf("runtime sample lacks server sources: %+v", tel.Runtime.Extra)
	}
	// Serve journaled server_start into the process journal; the snapshot
	// rides the most recent events along.
	found := false
	for _, ev := range tel.Events {
		if ev.Type == obs.EventServerStart {
			found = true
		}
	}
	if !found {
		t.Errorf("no server_start event in telemetry events: %+v", tel.Events)
	}
}

// TestTelemetryWindowedDivergesFromCumulative pins the headline behavior
// of the windowed histograms as surfaced through Server.Telemetry(): a
// latency regression that has aged out of the rolling window still
// dominates the cumulative p99, while the window reports current
// latency.
func TestTelemetryWindowedDivergesFromCumulative(t *testing.T) {
	db := testDB(t)
	srv := NewServer(db)

	clock := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	srv.tel.windows[OpSnapshot].WithClock(clock.Now)

	span := obs.Span{Op: string(OpSnapshot)}
	for i := 0; i < 100; i++ {
		srv.tel.record(OpSnapshot, 500*time.Millisecond, false, span)
	}
	clock.Advance(2 * time.Minute) // age the slow phase out of the 1m window
	for i := 0; i < 100; i++ {
		srv.tel.record(OpSnapshot, time.Millisecond, false, span)
	}

	tel := srv.Telemetry()
	var snap *obs.OpTelemetry
	for i := range tel.Ops {
		if tel.Ops[i].Op == string(OpSnapshot) {
			snap = &tel.Ops[i]
		}
	}
	if snap == nil {
		t.Fatal("snapshot op missing from telemetry")
	}
	if snap.Count != 200 {
		t.Errorf("cumulative count = %d, want 200", snap.Count)
	}
	if snap.P99 < 0.4 {
		t.Errorf("cumulative p99 = %v, want >= 0.4 (remembers the slow phase)", snap.P99)
	}
	oneMin := snap.Windows[0]
	if oneMin.Count != 100 {
		t.Errorf("1m window count = %d, want 100 (slow phase aged out)", oneMin.Count)
	}
	if oneMin.P99 > 0.01 {
		t.Errorf("1m window p99 = %v, want <= 0.01 (current latency only)", oneMin.P99)
	}
}

// TestSlowQueryCapturedWithStages checks that a query past the threshold
// lands in the slow-query log with its full span: trace id, parameters,
// and per-stage cost deltas.
func TestSlowQueryCapturedWithStages(t *testing.T) {
	db := testDB(t)
	srv := NewServer(db).WithSlowQueryThreshold(time.Nanosecond) // capture everything
	addr, stop := serveOn(t, srv)
	defer stop()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	view := dynq.Rect{Min: []float64{0, 0}, Max: []float64{50, 100}}
	if _, err := cl.Snapshot(view, 0, 1); err != nil {
		t.Fatal(err)
	}

	entries := srv.SlowLog().RecentOp("", 0)
	if len(entries) == 0 {
		t.Fatal("no slow queries captured at a 1ns threshold")
	}
	var got *obs.SlowEntry
	for i := range entries {
		if entries[i].Span.Op == string(OpSnapshot) {
			got = &entries[i]
		}
	}
	if got == nil {
		t.Fatalf("no snapshot span captured: %+v", entries)
	}
	if got.Span.TraceID == "" || got.Span.WallNS <= 0 {
		t.Errorf("captured span incomplete: %+v", got.Span)
	}
	if len(got.Span.Stages) == 0 {
		t.Errorf("captured span has no per-stage cost deltas: %+v", got.Span)
	}
	if len(got.Span.ViewMin) == 0 {
		t.Errorf("captured span lost its query parameters: %+v", got.Span)
	}
	if srv.Telemetry().SlowCaptured == 0 {
		t.Error("telemetry snapshot does not count the captured slow query")
	}
}

// serveOn serves an already-configured server on a loopback listener.
func serveOn(t *testing.T, srv *Server) (addr string, stop func()) {
	t.Helper()
	l, err := netListen()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv.Serve(l)
	}()
	return l.Addr().String(), func() {
		l.Close()
		srv.Close()
		wg.Wait()
	}
}

// TestDegradedEventsReachTelemetry flips the database into read-only
// mode and checks that both the flag and the journal events surface in
// the wire snapshot.
func TestDegradedEventsReachTelemetry(t *testing.T) {
	db := testDB(t)
	addr, stop := startServer(t, db)
	defer stop()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	db.SetReadOnly(true)
	tel, err := cl.Telemetry()
	if err != nil {
		t.Fatal(err)
	}
	if !tel.Degraded {
		t.Error("telemetry does not report degraded mode")
	}
	var enter bool
	for _, ev := range tel.Events {
		if ev.Type == obs.EventDegradedEnter {
			enter = true
		}
	}
	if !enter {
		t.Errorf("no degraded_enter event in telemetry: %+v", tel.Events)
	}

	db.SetReadOnly(false)
	tel, err = cl.Telemetry()
	if err != nil {
		t.Fatal(err)
	}
	if tel.Degraded {
		t.Error("telemetry still reports degraded mode after clear")
	}
	var exit bool
	for _, ev := range tel.Events {
		if ev.Type == obs.EventDegradedExit {
			exit = true
		}
	}
	if !exit {
		t.Errorf("no degraded_exit event in telemetry: %+v", tel.Events)
	}
}

// TestRecoveryReportInTelemetry opens a committed file through recovery
// and checks the journaled event reaches telemetry and the report's
// gauges reach /metrics.
func TestRecoveryReportInTelemetry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tel.dynq")
	seed, err := dynq.Open(dynq.Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		x := float64(i)
		if err := seed.Insert(dynq.ObjectID(i), dynq.Segment{
			T0: 0, T1: 10, From: []float64{x, x}, To: []float64{x, x},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := seed.Close(); err != nil {
		t.Fatal(err)
	}

	marker := obs.DefaultJournal().Total()
	db, rep, err := dynq.OpenFileRecoverWith(path, dynq.RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	srv := NewServer(db).WithRecoveryReport(rep)
	addr, stop := serveOn(t, srv)
	defer stop()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	tel, err := cl.Telemetry()
	if err != nil {
		t.Fatal(err)
	}
	var recovered bool
	for _, ev := range tel.Events {
		if ev.Type == obs.EventRecovery && ev.Seq >= marker {
			recovered = true
			if ev.Fields["pages_checked"] == "" || ev.Fields["segments"] == "" {
				t.Errorf("recovery event lacks fields: %+v", ev)
			}
		}
	}
	if !recovered {
		t.Errorf("no recovery event in telemetry after OpenFileRecoverWith: %+v", tel.Events)
	}

	var prom strings.Builder
	if err := srv.Registry().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, metric := range []string{
		"dynq_recovery_pages_checked", "dynq_recovery_segments", "dynq_recovery_repairs",
		"netq_request_window_seconds", "netq_slow_queries_total", "netq_journal_events_total",
	} {
		if !strings.Contains(prom.String(), metric) {
			t.Errorf("/metrics missing %s", metric)
		}
	}
}

// TestTelemetryBypassesAdmissionControl saturates read admission control
// and checks that the telemetry op still answers while a read is
// rejected — monitoring must work best exactly when the server is
// overloaded. The rejection lands in the journal as an overload burst.
func TestTelemetryBypassesAdmissionControl(t *testing.T) {
	db := testDB(t)
	srv := NewServer(db).WithConcurrency(1, 1)
	j := obs.DefaultJournal()
	since := j.Total()

	// Fill the execution slot and the wait queue by hand, so the next
	// read is deterministically rejected.
	srv.readSem <- struct{}{}
	srv.queued.Store(int64(srv.maxQueue))

	sess := &connSessions{npdq: db.NonPredictive(dynq.NonPredictiveOptions{})}
	view := dynq.Rect{Min: []float64{0, 0}, Max: []float64{50, 100}}
	resp := srv.serve(sess, Request{Op: OpSnapshot, View: view, T0: 0, T1: 1})
	if resp.ErrKind != ErrKindOverloaded {
		t.Fatalf("saturated read: ErrKind = %q, want %q", resp.ErrKind, ErrKindOverloaded)
	}

	resp = srv.serve(sess, Request{Op: OpTelemetry})
	if resp.Err != "" || resp.Telemetry == nil {
		t.Fatalf("telemetry under overload: err=%q telemetry=%v", resp.Err, resp.Telemetry)
	}
	if resp.Telemetry.ReadQueueDepth != srv.maxQueue {
		t.Errorf("ReadQueueDepth = %d, want %d", resp.Telemetry.ReadQueueDepth, srv.maxQueue)
	}

	events := j.Since(since)
	var burst bool
	for _, ev := range events {
		if ev.Type == obs.EventOverloadBurst {
			burst = true
			if ev.Fields["rejections"] != "1" {
				t.Errorf("burst event rejections = %q, want 1", ev.Fields["rejections"])
			}
		}
	}
	if !burst {
		t.Errorf("no overload_burst event journaled: %+v", events)
	}

	// A second rejection inside the burst interval aggregates silently.
	resp = srv.serve(sess, Request{Op: OpSnapshot, View: view, T0: 0, T1: 1})
	if resp.ErrKind != ErrKindOverloaded {
		t.Fatalf("second saturated read: ErrKind = %q", resp.ErrKind)
	}
	var bursts int
	for _, ev := range j.Since(since) {
		if ev.Type == obs.EventOverloadBurst {
			bursts++
		}
	}
	if bursts != 1 {
		t.Errorf("burst events = %d, want 1 (rate-limited aggregation)", bursts)
	}
	<-srv.readSem
}
