package netq

import (
	"net"
	"strconv"

	"dynq"
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
// request and error counts, connection and
// session gauges, byte counters, and pager/engine gauges that read the
// database's live cost counters at render time.
type serverMetrics struct {
	perOp             map[Op]*opMetrics
	activeConns       *obs.Gauge
	activePDQ         *obs.Gauge
	bytesIn           *obs.Counter
	bytesOut          *obs.Counter
	unknownOps        *obs.Counter
	versionMismatches *obs.Counter

	// Contention observability for the concurrent read path.
	inflightOps    *obs.Gauge     // ops currently executing (all kinds)
	readQueueDepth *obs.Gauge     // read ops waiting for an execution slot
	admissionWait  *obs.Histogram // seconds a read spent waiting to start
	overloads      *obs.Counter   // reads rejected by admission control
}

func newServerMetrics(reg *obs.Registry, db dynq.Database) *serverMetrics {
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
	reg.SetHelp("pager_buffer_segment_hit_ratio", "Per-lock-segment buffer pool hits / (hits + misses).")
	reg.SetHelp("pager_buffer_hit_ratio", "Buffer pool hits / (hits + misses).")
	reg.SetHelp("dynq_page_reads_total", "Cumulative index node fetches (the paper's disk-access metric).")
	reg.SetHelp("dynq_distance_comps_total", "Cumulative geometric predicate evaluations (the paper's CPU metric).")
	reg.SetHelp("pager_checksum_failures_total", "Pages whose CRC32C trailer failed verification on read.")
	reg.SetHelp("netq_retries_total", "Transparent redial-and-retry attempts by reconnecting clients in this process.")
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
	m.readQueueDepth = reg.Gauge("netq_read_queue_depth")
	m.admissionWait = reg.Histogram("netq_read_admission_wait_seconds", nil)
	m.overloads = reg.Counter("netq_overload_rejections_total")
	obs.RegisterBuildInfo(reg)

	// Buffer pool and engine totals are owned by the database; expose
	// them as render-time gauges over its live (atomic) accounting.
	reg.GaugeFunc("pager_buffer_hit_ratio", func() float64 { return db.BufferStats().HitRatio() })
	reg.GaugeFunc("pager_buffer_hits_total", func() float64 { return float64(db.BufferStats().Hits) })
	reg.GaugeFunc("pager_buffer_misses_total", func() float64 { return float64(db.BufferStats().Misses) })
	reg.GaugeFunc("pager_buffer_writebacks_total", func() float64 { return float64(db.BufferStats().WriteBacks) })
	reg.GaugeFunc("pager_buffer_frames", func() float64 { return float64(db.BufferStats().Len) })
	reg.GaugeFunc("dynq_page_reads_total", func() float64 { return float64(db.CostSnapshot().Reads()) })
	reg.GaugeFunc("dynq_page_writes_total", func() float64 { return float64(db.CostSnapshot().PageWrites) })
	reg.GaugeFunc("dynq_distance_comps_total", func() float64 { return float64(db.CostSnapshot().DistanceComps) })
	reg.GaugeFunc("dynq_pruned_nodes_total", func() float64 { return float64(db.CostSnapshot().PrunedNodes) })
	reg.GaugeFunc("dynq_results_total", func() float64 { return float64(db.CostSnapshot().Results) })
	reg.GaugeFunc("pager_checksum_failures_total", func() float64 { return float64(pager.ChecksumFailures()) })
	reg.GaugeFunc("netq_retries_total", func() float64 { return float64(RetriesTotal()) })
	reg.GaugeFunc("dynq_degraded_mode", func() float64 {
		if db.Degraded() {
			return 1
		}
		return 0
	})

	// One hit-ratio gauge per buffer pool lock segment: a cold or
	// thrashing segment shows up as an outlier. The segment count is
	// fixed by the pool's capacity, so registration at startup is safe.
	for i := range db.BufferSegments() {
		idx := i
		reg.GaugeFunc("pager_buffer_segment_hit_ratio", func() float64 {
			segs := db.BufferSegments()
			if idx >= len(segs) {
				return 0
			}
			return segs[idx].HitRatio()
		}, obs.L("segment", strconv.Itoa(i)))
	}

	// Per-unit gauges and fan-out latency histograms.
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
// for separate SLO tracking and slow-write capture.
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
