package netq

import (
	"net"

	"dynq/internal/obs"
	"dynq/internal/pager"
)

// knownOps enumerates the protocol operations, in wire-code order, for
// per-op metric pre-registration (lock-free lookup on the request path).
var knownOps = func() []Op {
	ops := make([]Op, 0, len(wireOps)-1)
	for _, w := range wireOps[1:] {
		ops = append(ops, w.op)
	}
	return ops
}()

// opMetrics aggregates the per-operation counters; each op's latency is
// observed into its windowed histogram (serverTelemetry.windows).
type opMetrics struct {
	requests *obs.Counter
	errors   *obs.Counter
}

// serverMetrics is the server's registry-backed instrumentation: per-op
// request and error counts, connection and session gauges, byte
// counters, and the database's gauges, read at render time.
type serverMetrics struct {
	perOp             map[Op]*opMetrics
	activeConns       *obs.Gauge
	activePDQ         *obs.Gauge
	bytesIn           *obs.Counter
	bytesOut          *obs.Counter
	unknownOps        *obs.Counter
	versionMismatches *obs.Counter

	// Contention observability for the concurrent read path.
	inflightOps   *obs.Gauge     // ops currently executing (all kinds)
	admissionWait *obs.Histogram // seconds a read spent waiting to start
	overloads     *obs.Counter   // reads rejected by admission control
}

// newServerMetrics registers s's metrics in its registry. Values owned
// elsewhere — the read queue, the buffer pool, the units' costs, the
// Go runtime — are render-time gauges over their one store.
func newServerMetrics(s *Server) *serverMetrics {
	reg, db := s.reg, s.db
	reg.SetHelp("netq_requests_total", "Requests received, by protocol op.")
	reg.SetHelp("netq_request_errors_total", "Requests answered with an error, by protocol op.")
	reg.SetHelp("netq_active_connections", "Currently open client connections.")
	reg.SetHelp("netq_active_sessions", "Currently running dynamic-query sessions, by kind.")
	reg.SetHelp("netq_bytes_in_total", "Bytes read from clients.")
	reg.SetHelp("netq_bytes_out_total", "Bytes written to clients.")
	reg.SetHelp("netq_unknown_ops_total", "Requests naming an operation the server has no handler for.")
	reg.SetHelp("netq_version_mismatches_total", "Connections rejected by the protocol version handshake.")
	reg.SetHelp("netq_inflight_ops", "Operations currently executing.")
	reg.SetHelp("netq_read_queue_depth", "Read operations waiting for an execution slot.")
	reg.SetHelp("netq_read_admission_wait_seconds", "Time read operations spent waiting for an execution slot.")
	reg.SetHelp("netq_overload_rejections_total", "Read operations rejected because the wait queue was full.")
	reg.SetHelp("pager_checksum_failures_total", "Pages whose CRC32C trailer failed verification on read.")
	reg.SetHelp("dynq_degraded_mode", "1 when the database has degraded to read-only after storage write failures.")

	m := &serverMetrics{perOp: make(map[Op]*opMetrics, len(knownOps))}
	for _, op := range knownOps {
		l := obs.L("op", string(op))
		m.perOp[op] = &opMetrics{
			requests: reg.Counter("netq_requests_total", l),
			errors:   reg.Counter("netq_request_errors_total", l),
		}
	}
	m.activeConns = reg.Gauge("netq_active_connections")
	m.activePDQ = reg.Gauge("netq_active_sessions", obs.L("kind", "pdq"))
	m.bytesIn = reg.Counter("netq_bytes_in_total")
	m.bytesOut = reg.Counter("netq_bytes_out_total")
	m.unknownOps = reg.Counter("netq_unknown_ops_total")
	m.versionMismatches = reg.Counter("netq_version_mismatches_total")
	m.inflightOps = reg.Gauge("netq_inflight_ops")
	reg.GaugeFunc("netq_read_queue_depth", func() float64 { return float64(s.queued.Load()) })
	m.admissionWait = reg.Histogram("netq_read_admission_wait_seconds", nil)
	m.overloads = reg.Counter("netq_overload_rejections_total")
	obs.RegisterBuildInfo(reg)
	obs.RegisterRuntime(reg)

	// Buffer pool totals are owned by the database; expose them as
	// render-time gauges over its live (atomic) accounting. The cost
	// counters are per unit (db.RegisterMetrics); a ratio is left to the
	// reader, who has both of its terms on this page.
	reg.GaugeFunc("pager_buffer_hits_total", func() float64 { return float64(db.BufferStats().Hits) })
	reg.GaugeFunc("pager_buffer_misses_total", func() float64 { return float64(db.BufferStats().Misses) })
	reg.GaugeFunc("pager_buffer_writebacks_total", func() float64 { return float64(db.BufferStats().WriteBacks) })
	reg.GaugeFunc("pager_buffer_frames", func() float64 { return float64(db.BufferStats().Len) })
	reg.GaugeFunc("pager_checksum_failures_total", func() float64 { return float64(pager.ChecksumFailures()) })
	reg.GaugeFunc("dynq_degraded_mode", func() float64 {
		if db.Degraded() {
			return 1
		}
		return 0
	})

	// Per-unit cost counters, segment counts and fan-out latency
	// histograms.
	db.RegisterMetrics(reg)
	// A database with a WAL armed exposes the log's group-commit
	// instrumentation (fsync latency, batch sizes, checkpoint lag), one
	// running the self-healing maintenance loop its checkpoint/probe/scrub
	// counters; both are no-ops otherwise.
	db.RegisterWALMetrics(reg)
	db.RegisterMaintenanceMetrics(reg)
	return m
}

// isWriteOp classifies the one op that mutates the index, apply-updates,
// for separate SLO tracking.
func isWriteOp(op Op) bool { return op == OpApplyUpdates }

// engineFor names the query engine behind an op, for the tracer's stage
// decomposition. Ops that do not traverse the index report no stages.
func engineFor(op Op) (string, bool) {
	switch op {
	case OpSnapshot:
		return "snapshot", true
	case OpKNN:
		return "knn", true
	case OpPDQFetch:
		return "pdq", true
	case OpNPDQ:
		return "npdq", true
	case OpApplyUpdates:
		return "insert", true
	}
	return "", false
}

// countingConn counts bytes flowing through a client connection.
type countingConn struct {
	net.Conn
	in, out *obs.Counter
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(int64(n))
	return n, err
}
