package netq

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dynq"
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

// serverTelemetry is the server's rolling-window observability state:
// per-op windowed latency, SLO attainment (reads and writes tracked
// against separate objectives), the slow-op log and the runtime
// collector; operational events go to the process-wide journal. It
// lives beside the cumulative serverMetrics, which feed /metrics since
// boot.
type serverTelemetry struct {
	started   time.Time
	winSpans  []time.Duration
	windows   map[Op]*obs.WindowedHistogram
	slo       *obs.SLOTracker // read/query objectives
	sloWrite  *obs.SLOTracker // write objectives (availability + durability-wait latency)
	slowLog   *obs.SlowLog    // one shared ring; writes use their own bar
	slowWrite atomic.Int64    // slow-write capture threshold, nanoseconds
	collector *obs.Collector
	recovery  *dynq.RecoveryReport

	collectorOnce sync.Once
	collectorOn   atomic.Bool

	// Overload burst aggregation (see noteOverload).
	burstMu   sync.Mutex
	burstAcc  int64
	lastBurst time.Time
}

// newServerTelemetry builds the rolling-window state for a server. Each
// op's windowed histogram is the one latency histogram a request is
// observed into: its cumulative side is /metrics' netq_request_seconds,
// and its windowed percentiles are render-time gauges,
// netq_request_window_seconds{op,window,quantile}.
func newServerTelemetry(s *Server) *serverTelemetry {
	t := &serverTelemetry{
		started:  time.Now(),
		winSpans: obs.DefWindows(),
		windows:  make(map[Op]*obs.WindowedHistogram, len(knownOps)),
		slo:      obs.NewSLOTracker(obs.SLOConfig{}),
		sloWrite: obs.NewSLOTracker(obs.SLOConfig{}),
		slowLog:  obs.NewSlowLog(SlowLogCapacity, obs.DefSlowThreshold),
	}
	t.slowWrite.Store(int64(obs.DefSlowThreshold))
	maxWin := t.winSpans[len(t.winSpans)-1]
	reg := s.reg
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

	// The runtime collector samples scheduler/heap/GC state plus the
	// server's own load signals into a time series for /debug/runtime.
	col := obs.NewCollector(0, 0)
	col.Source("buffer_frames", func() float64 { return float64(s.db.BufferStats().Len) })
	col.Source("buffer_occupancy", func() float64 {
		bs := s.db.BufferStats()
		if bs.Capacity == 0 {
			return 0
		}
		return float64(bs.Len) / float64(bs.Capacity)
	})
	col.Source("read_queue_depth", func() float64 { return float64(s.queued.Load()) })
	col.Source("inflight_ops", func() float64 { return s.metrics.inflightOps.Value() })
	col.Source("active_conns", func() float64 { return s.metrics.activeConns.Value() })
	col.Register(reg)
	t.collector = col
	return t
}

// record folds one finished request into the rolling-window state:
// windowed latency, SLO accounting against the op class's objectives,
// and — past the class's threshold — the slow-op log, span (with its
// per-stage cost deltas) included. Writes are tracked separately from
// reads: their own SLO tracker and their own slow capture bar.
func (t *serverTelemetry) record(op Op, elapsed time.Duration, failed bool, span obs.Span) {
	if w := t.windows[op]; w != nil {
		w.ObserveDuration(elapsed)
	}
	if isWriteOp(op) {
		t.sloWrite.Record(string(op), elapsed, failed)
		t.slowLog.RecordAt(span, time.Duration(t.slowWrite.Load()))
		return
	}
	t.slo.Record(string(op), elapsed, failed)
	t.slowLog.Record(span)
}

// noteOverload aggregates admission-control rejections into journal
// burst events: the first rejection of a quiet period is journaled
// immediately, then further rejections accumulate until
// overloadBurstInterval passes, when one event carries the whole burst.
func (t *serverTelemetry) noteOverload(executing, queued int) {
	t.burstMu.Lock()
	t.burstAcc++
	now := time.Now()
	if now.Sub(t.lastBurst) < overloadBurstInterval {
		t.burstMu.Unlock()
		return
	}
	n := t.burstAcc
	t.burstAcc = 0
	t.lastBurst = now
	t.burstMu.Unlock()
	obs.DefaultJournal().Record(obs.EventOverloadBurst, obs.SeverityWarn,
		"read admission control rejecting requests", map[string]string{
			"rejections": strconv.FormatInt(n, 10),
			"executing":  strconv.Itoa(executing),
			"queue_cap":  strconv.Itoa(queued),
		})
}

// WithSlowQueryThreshold sets the latency above which a query is
// captured into the slow-query log (default obs.DefSlowThreshold;
// negative disables capture). Safe to call at any time.
func (s *Server) WithSlowQueryThreshold(d time.Duration) *Server {
	s.tel.slowLog.SetThreshold(d)
	return s
}

// WithSLO replaces the default service-level objectives (99.9%
// availability, 99% of requests under 100ms, over a 5-minute window).
// Call before Serve.
func (s *Server) WithSLO(cfg obs.SLOConfig) *Server {
	s.tel.slo = obs.NewSLOTracker(cfg)
	return s
}

// WithSlowWriteThreshold sets the latency above which a WRITE op
// (apply-updates) is captured into the shared slow-op log,
// independently of the query threshold (default obs.DefSlowThreshold;
// negative disables write capture). Safe to call at any time.
func (s *Server) WithSlowWriteThreshold(d time.Duration) *Server {
	if d == 0 {
		d = obs.DefSlowThreshold
	}
	s.tel.slowWrite.Store(int64(d))
	return s
}

// WithWriteSLO replaces the write ops' service-level objectives,
// tracked separately from reads: availability plus a durability-wait
// latency target per acknowledged write. Call before Serve.
func (s *Server) WithWriteSLO(cfg obs.SLOConfig) *Server {
	s.tel.sloWrite = obs.NewSLOTracker(cfg)
	return s
}

// WithRecoveryReport attaches the report from OpenFileRecoverWith, exposing
// what open-time verification checked and repaired as dynq_recovery_*
// gauges (the recovery event itself is journaled by the open). Call
// before Serve.
func (s *Server) WithRecoveryReport(rep *dynq.RecoveryReport) *Server {
	if rep == nil {
		return s
	}
	s.tel.recovery = rep
	reg := s.reg
	reg.SetHelp("dynq_recovery_pages_checked", "Pages verified by recovery at open.")
	reg.SetHelp("dynq_recovery_orphan_pages", "Unreachable pages reclaimed to the free list by recovery.")
	reg.SetHelp("dynq_recovery_repairs", "1 when recovery repaired a torn header or rebuilt the free list.")
	r := *rep
	reg.GaugeFunc("dynq_recovery_header_seq", func() float64 { return float64(r.HeaderSeq) })
	reg.GaugeFunc("dynq_recovery_pages_checked", func() float64 { return float64(r.PagesChecked) })
	reg.GaugeFunc("dynq_recovery_segments", func() float64 { return float64(r.Segments) })
	reg.GaugeFunc("dynq_recovery_free_pages", func() float64 { return float64(r.FreePages) })
	reg.GaugeFunc("dynq_recovery_orphan_pages", func() float64 { return float64(r.OrphanPages) })
	reg.GaugeFunc("dynq_recovery_repairs", func() float64 {
		if r.TornHeaderRepaired || r.FreeListRebuilt {
			return 1
		}
		return 0
	})
	return s
}

// SlowLog exposes the server's slow-query log (for /debug/slow).
func (s *Server) SlowLog() *obs.SlowLog { return s.tel.slowLog }

// Journal exposes the journal this server records operational events
// into (for /debug/events): the process-wide default journal.
func (s *Server) Journal() *obs.Journal { return obs.DefaultJournal() }

// Collector exposes the server's runtime collector (for
// /debug/runtime). Serve starts it; Close stops it.
func (s *Server) Collector() *obs.Collector { return s.tel.collector }

// startCollector launches the runtime sampling goroutine, once.
func (s *Server) startCollector() {
	s.tel.collectorOnce.Do(func() {
		s.tel.collector.Start()
		s.tel.collectorOn.Store(true)
		obs.DefaultJournal().Record(obs.EventServerStart, obs.SeverityInfo,
			"netq server accepting connections", nil)
	})
}

// Telemetry assembles the live stats snapshot served by the telemetry
// op and /debug/telemetry: rolling-window and cumulative per-op
// latency, SLO attainment, the latest runtime sample, slow-query and
// event-journal summaries.
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
		SLOs:           append(s.tel.slo.Status(), s.tel.sloWrite.Status()...),
		SlowThreshold:  s.tel.slowLog.Threshold(),
		SlowCaptured:   s.tel.slowLog.Captured(),
		EventsTotal:    obs.DefaultJournal().Total(),
		Events:         obs.DefaultJournal().Recent(telemetryEventLimit),
	}
	if sample, ok := s.tel.collector.Latest(); ok {
		tel.Runtime = &sample
	} else {
		sample := s.tel.collector.SampleOnce()
		tel.Runtime = &sample
	}
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
