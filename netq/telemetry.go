package netq

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"dynq/internal/obs"
)

// Telemetry is the server stats snapshot returned by the telemetry op
// and by /debug/telemetry — aliased so clients can consume it without
// importing the internal obs package.
type Telemetry = obs.Telemetry

// SlowLogCapacity is the number of slow-query entries a server retains.
const SlowLogCapacity = 128

// telemetryEventLimit is how many recent journal events ride along in a
// telemetry snapshot (the full ring stays available at /debug/events).
const telemetryEventLimit = 16

// overloadBurstInterval rate-limits overload journal events: rejections
// inside one interval are aggregated into a single burst event, so a
// storm of rejected reads cannot flood the journal.
const overloadBurstInterval = 10 * time.Second

// The service-level objectives every server tracks, over one rolling
// window: reads against a per-request latency target, writes against a
// durability-wait target per acknowledged write. Both also carry the
// availability objective (obs.SLOStatus).
const (
	sloWindow       = 5 * time.Minute
	sloReadLatency  = 100 * time.Millisecond
	sloWriteLatency = 50 * time.Millisecond
)

// serverTelemetry is the server's rolling-window observability state:
// per-op windowed latency, SLO attainment (reads and writes tracked
// against separate objectives) and the slow-op log; operational events
// go to the process-wide journal. It lives beside the cumulative
// serverMetrics, which feed /metrics since boot.
type serverTelemetry struct {
	started  time.Time
	winSpans []time.Duration
	windows  map[Op]*obs.WindowedHistogram
	slo      *obs.SLOTracker // read/query objectives
	sloWrite *obs.SLOTracker // write objectives (availability + durability-wait latency)
	slowLog  *obs.SlowLog    // one ring and one bar for reads and writes

	// Overload burst aggregation (see noteOverload).
	burstMu sync.Mutex
	burst   *overloadBurst // the open burst; nil in a quiet period
}

// overloadBurst is one run of overload intervals.
type overloadBurst struct {
	n     int64       // rejections since the burst's last event
	timer *time.Timer // closes the open interval
}

// newServerTelemetry builds the rolling-window state for a server. Each
// op's windowed histogram is the one latency histogram a request is
// observed into: its cumulative side is /metrics' netq_request_seconds,
// and its windowed percentiles are render-time gauges,
// netq_request_window_seconds{op,window,quantile}.
func newServerTelemetry(reg *obs.Registry) *serverTelemetry {
	t := &serverTelemetry{
		started:  time.Now(),
		winSpans: obs.DefWindows(),
		windows:  make(map[Op]*obs.WindowedHistogram, len(knownOps)),
		slo:      obs.NewSLOTracker(sloWindow, sloReadLatency),
		sloWrite: obs.NewSLOTracker(sloWindow, sloWriteLatency),
		slowLog:  obs.NewSlowLog(SlowLogCapacity, obs.DefSlowThreshold),
	}
	maxWin := t.winSpans[len(t.winSpans)-1]
	reg.SetHelp("netq_request_seconds", "Request handling latency in seconds, by protocol op.")
	reg.SetHelp("netq_request_window_seconds",
		"Rolling-window request latency quantiles in seconds, by op, window, and quantile.")
	reg.SetHelp("netq_slow_queries_total", "Operations (read queries and writes) captured by the slow-op log.")
	reg.SetHelp("netq_journal_events_total", "Operational events recorded in the journal.")
	for _, op := range knownOps {
		w := obs.NewWindowedHistogram(nil, obs.DefWindowInterval, maxWin)
		t.windows[op] = w
		l := obs.L("op", string(op))
		reg.AttachHistogram("netq_request_seconds", w.Cumulative(), l)
		w.RegisterWindowGauges(reg, "netq_request_window_seconds", t.winSpans, l)
	}
	reg.GaugeFunc("netq_slow_queries_total", func() float64 { return float64(t.slowLog.Captured()) })
	reg.GaugeFunc("netq_journal_events_total", func() float64 { return float64(obs.DefaultJournal().Total()) })
	return t
}

// record folds one finished request into the rolling-window state:
// windowed latency, SLO accounting against the op class's objectives,
// and — past the slow-capture threshold — the slow-op log, span (with
// its per-stage cost deltas) included. Writes are tracked against their
// own SLO objectives.
func (t *serverTelemetry) record(op Op, elapsed time.Duration, failed bool, span obs.Span) {
	if w := t.windows[op]; w != nil {
		w.ObserveDuration(elapsed)
	}
	if isWriteOp(op) {
		t.sloWrite.Record(string(op), elapsed, failed)
	} else {
		t.slo.Record(string(op), elapsed, failed)
	}
	t.slowLog.Record(span)
}

// noteOverload aggregates admission-control rejections into journal
// burst events, at most one per overloadBurstInterval: the first
// rejection of a quiet period is journaled at once and opens an
// interval, later ones accumulate, and when the interval closes their
// count is journaled and the next interval opens. An interval that
// closes with nothing accumulated ends the burst; Close flushes an open
// one.
func (s *Server) noteOverload() {
	t := s.tel
	t.burstMu.Lock()
	defer t.burstMu.Unlock()
	if t.burst != nil {
		t.burst.n++
		return
	}
	b := &overloadBurst{}
	b.timer = time.AfterFunc(overloadBurstInterval, func() { s.closeOverloadInterval(b) })
	t.burst = b
	s.journalOverload(1)
}

// closeOverloadInterval journals what burst b accumulated in the
// interval that just closed and opens the next one, or ends b when
// nothing accumulated. A burst that Close already flushed is left alone.
func (s *Server) closeOverloadInterval(b *overloadBurst) {
	t := s.tel
	t.burstMu.Lock()
	defer t.burstMu.Unlock()
	if t.burst != b {
		return
	}
	if b.n == 0 {
		t.burst = nil
		return
	}
	s.journalOverload(b.n)
	b.n = 0
	b.timer.Reset(overloadBurstInterval)
}

// flushOverload ends the open burst, journaling what it accumulated.
func (s *Server) flushOverload() {
	t := s.tel
	t.burstMu.Lock()
	defer t.burstMu.Unlock()
	b := t.burst
	if b == nil {
		return
	}
	b.timer.Stop()
	t.burst = nil
	if b.n > 0 {
		s.journalOverload(b.n)
	}
}

// journalOverload records one overload burst event of n rejections,
// with the admission bounds they hit.
func (s *Server) journalOverload(n int64) {
	obs.DefaultJournal().Record(obs.EventOverloadBurst, obs.SeverityWarn,
		"read admission control rejecting requests", map[string]string{
			"rejections":     strconv.FormatInt(n, 10),
			"max_concurrent": strconv.Itoa(s.maxConcurrent),
			"max_queue":      strconv.Itoa(s.maxQueue),
		})
}

// WithSlowQueryThreshold sets the latency above which an operation, a
// read or a write, is captured into the slow-op log (default
// obs.DefSlowThreshold; negative disables capture). Safe to call at any
// time.
func (s *Server) WithSlowQueryThreshold(d time.Duration) *Server {
	s.tel.slowLog.SetThreshold(d)
	return s
}

// SlowLog exposes the server's slow-query log (for /debug/slow).
func (s *Server) SlowLog() *obs.SlowLog { return s.tel.slowLog }

// Journal exposes the journal this server records operational events
// into (for /debug/events): the process-wide default journal.
func (s *Server) Journal() *obs.Journal { return obs.DefaultJournal() }

// Telemetry assembles the live stats snapshot served by the telemetry
// op and /debug/telemetry: rolling-window and cumulative per-op
// latency, SLO attainment, a runtime reading, slow-query and
// event-journal summaries, each read from its one store now.
func (s *Server) Telemetry() Telemetry {
	goVersion, revision := obs.BuildInfo()
	tel := Telemetry{
		Time:           time.Now(),
		UptimeSeconds:  time.Since(s.tel.started).Seconds(),
		GoVersion:      goVersion,
		Revision:       revision,
		Degraded:       s.db.Degraded(),
		ActiveConns:    int(s.metrics.activeConns.Value()),
		InflightOps:    int(s.metrics.inflightOps.Value()),
		ReadQueueDepth: int(s.queued.Load()),
		BufferFrames:   s.db.BufferStats().Len,
		SLOs:           append(s.tel.slo.Status(), s.tel.sloWrite.Status()...),
		SlowThreshold:  s.tel.slowLog.Threshold(),
		SlowCaptured:   s.tel.slowLog.Captured(),
		EventsTotal:    obs.DefaultJournal().Total(),
		Events:         obs.DefaultJournal().Recent(telemetryEventLimit),
	}
	rt := obs.ReadRuntime()
	tel.Runtime = &rt
	if w, ok := s.db.WALTelemetry(s.tel.winSpans); ok {
		tel.WAL = &w
	}
	if mt, ok := s.db.MaintenanceTelemetry(); ok {
		tel.Maintenance = &mt
	}
	for _, op := range knownOps {
		w := s.tel.windows[op]
		if w.Cumulative().Count() == 0 {
			continue
		}
		h := obs.SummarizeWindowed(w, s.tel.winSpans)
		tel.Ops = append(tel.Ops, obs.OpTelemetry{
			Op:      string(op),
			Count:   h.Count,
			Errors:  s.metrics.perOp[op].errors.Value(),
			Sum:     h.Sum,
			P50:     h.P50,
			P95:     h.P95,
			P99:     h.P99,
			Windows: h.Windows,
		})
	}
	return tel
}

// Telemetry fetches the server's stats snapshot: rolling-window and
// cumulative per-op latency, SLO attainment, runtime health, and recent
// operational events. The op bypasses read admission control so a
// monitoring poll (dqtop, a cluster router's health probe) still
// answers while the server sheds query load.
func (c *Client) Telemetry() (Telemetry, error) {
	return c.TelemetryCtx(context.Background())
}

// TelemetryCtx is Telemetry with cooperative cancellation.
func (c *Client) TelemetryCtx(ctx context.Context) (Telemetry, error) {
	resp, err := c.roundTrip(ctx, Request{Op: OpTelemetry})
	if err != nil {
		return Telemetry{}, err
	}
	if resp.Telemetry == nil {
		return Telemetry{}, fmt.Errorf("netq: server answered the telemetry op without a snapshot")
	}
	tel := *resp.Telemetry
	tel.Addr = c.addr
	return tel, nil
}
