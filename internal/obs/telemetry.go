package obs

import (
	"time"
)

// OpTelemetry is one operation's latency picture: cumulative since boot
// plus rolling windows.
type OpTelemetry struct {
	Op     string  `json:"op"`
	Count  int64   `json:"count"`
	Errors int64   `json:"errors"`
	Sum    float64 `json:"sum"` // cumulative seconds
	// Cumulative since-boot percentiles (seconds).
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
	// Rolling windows, shortest first.
	Windows []WindowSnapshot `json:"windows,omitempty"`
}

// Telemetry is one server's stats snapshot: windowed and cumulative
// per-op latency, SLO attainment, a runtime reading, and recent
// operational events. It is the payload of the netq telemetry op (so
// non-HTTP clients and the future cluster router can poll it) and of the
// /debug/telemetry endpoint.
type Telemetry struct {
	Time          time.Time `json:"time"`
	Addr          string    `json:"addr,omitempty"` // filled by clients that know who they asked
	UptimeSeconds float64   `json:"uptime_seconds"`
	GoVersion     string    `json:"go_version"`
	Revision      string    `json:"revision"`
	Degraded      bool      `json:"degraded"`

	ActiveConns    int `json:"active_conns"`
	InflightOps    int `json:"inflight_ops"`
	ReadQueueDepth int `json:"read_queue_depth"`
	BufferFrames   int `json:"buffer_frames"` // frames the buffer pool holds

	Ops  []OpTelemetry `json:"ops,omitempty"`
	SLOs []SLOStatus   `json:"slos,omitempty"`

	// WAL is the write-ahead-log section, present only when the server's
	// database has a log armed.
	WAL *WALTelemetry `json:"wal,omitempty"`

	// Maintenance is the self-healing section, present only when the
	// server's database runs the maintenance loop (auto-checkpoint,
	// degraded-mode probe, background scrub).
	Maintenance *MaintenanceTelemetry `json:"maintenance,omitempty"`

	Runtime *RuntimeSample `json:"runtime,omitempty"`

	SlowThreshold time.Duration `json:"slow_threshold_ns"`
	SlowCaptured  uint64        `json:"slow_captured"`

	EventsTotal uint64  `json:"events_total"`
	Events      []Event `json:"events,omitempty"` // newest first
}

// MaintenanceTelemetry is the self-healing section of a Telemetry
// snapshot: what the background maintenance loop has done since boot and
// where the database stands right now. Counters are cumulative.
type MaintenanceTelemetry struct {
	// Ticks counts maintenance loop iterations.
	Ticks int64 `json:"ticks"`

	// Auto-checkpoint policy.
	Checkpoints        int64   `json:"checkpoints"`         // policy-driven checkpoints completed
	CheckpointFailures int64   `json:"checkpoint_failures"` // policy-driven checkpoints that errored
	CheckpointPressure float64 `json:"checkpoint_pressure"` // worst log's fraction of its nearest threshold (>= 1 means due)

	// Degraded-mode recovery probe.
	Degraded             bool    `json:"degraded"`                        // read-only right now
	DegradedSeconds      float64 `json:"degraded_seconds,omitempty"`      // time spent degraded in the current episode
	Probes               int64   `json:"probes"`                          // durable probe writes attempted
	ProbeFailures        int64   `json:"probe_failures"`                  // probes that failed (backoff doubled)
	Heals                int64   `json:"heals"`                           // degraded episodes cleared by a probe
	NextProbeInSeconds   float64 `json:"next_probe_in_seconds,omitempty"` // backoff remaining before the next probe
	LastProbeError       string  `json:"last_probe_error,omitempty"`
	DowntimeTotalSeconds float64 `json:"downtime_total_seconds"` // cumulative degraded time across healed episodes

	// Background scrub.
	ScrubPages       int64  `json:"scrub_pages"`       // pages verified since boot
	ScrubCorruptions int64  `json:"scrub_corruptions"` // pages that failed verification
	ScrubPasses      int64  `json:"scrub_passes"`      // complete sweeps of the reachable set
	ScrubCursor      int64  `json:"scrub_cursor"`      // pages into the current pass
	LastScrubError   string `json:"last_scrub_error,omitempty"`
}

// HistSummary is one histogram's snapshot: cumulative since-boot stats
// plus rolling windows, shortest first.
type HistSummary struct {
	Count   int64            `json:"count"`
	Sum     float64          `json:"sum"`
	P50     float64          `json:"p50"`
	P95     float64          `json:"p95"`
	P99     float64          `json:"p99"`
	Windows []WindowSnapshot `json:"windows,omitempty"`
}

// SummarizeWindowed snapshots a windowed histogram into a HistSummary
// over the given rolling windows.
func SummarizeWindowed(w *WindowedHistogram, windows []time.Duration) HistSummary {
	cum := w.Cumulative()
	s := HistSummary{
		Count: cum.Count(),
		Sum:   cum.Sum(),
		P50:   cum.Quantile(0.50),
		P95:   cum.Quantile(0.95),
		P99:   cum.Quantile(0.99),
	}
	for _, win := range windows {
		s.Windows = append(s.Windows, w.Snapshot(win))
	}
	return s
}

// WALTelemetry is the write-ahead-log section of a Telemetry snapshot:
// group-commit behaviour (fsync latency, batch sizes, coalescing),
// append throughput, and checkpoint state. Counters are since boot;
// histogram summaries carry rolling windows alongside the cumulative
// picture.
type WALTelemetry struct {
	Path string `json:"path,omitempty"`
	// Logs is the number of per-shard logs aggregated into this snapshot
	// (0 for a single-log database). When > 1, counters and byte totals
	// are sums across logs, the LSN triple sums each log's independent
	// sequence, and histogram quantiles report the WORST shard (see
	// MergeWALTelemetry).
	Logs int `json:"logs,omitempty"`

	Appends       int64   `json:"appends"`
	AppendedBytes int64   `json:"appended_bytes"`
	Fsyncs        int64   `json:"fsyncs"`
	Coalesced     int64   `json:"coalesced"`
	CoalesceRatio float64 `json:"coalesce_ratio"` // coalesced / (coalesced + fsyncs)
	Checkpoints   int64   `json:"checkpoints"`

	LastLSN       uint64 `json:"last_lsn"`
	DurableLSN    uint64 `json:"durable_lsn"`
	CheckpointLSN uint64 `json:"checkpoint_lsn"`
	CheckpointLag uint64 `json:"checkpoint_lag"` // records appended but not yet checkpointed
	LogBytes      int64  `json:"log_bytes"`      // current file size, headers included
	LiveBytes     int64  `json:"live_bytes"`     // record bytes since the last checkpoint

	FsyncLatency       HistSummary `json:"fsync_latency"`       // seconds per group-commit fsync
	BatchSize          HistSummary `json:"batch_size"`          // records made durable per fsync round
	AppendBytes        HistSummary `json:"append_bytes"`        // encoded record bytes per append
	CheckpointDuration HistSummary `json:"checkpoint_duration"` // seconds per checkpoint
}

// MergeWALTelemetry folds one log's snapshot into an aggregate — the
// sharded database's per-shard logs presented as one section. Counters,
// byte totals, LSNs, and checkpoint lag add (each log's LSN sequence is
// independent, so the sums read as fleet totals); histogram counts and
// sums add while quantiles take the maximum, so the aggregate's p99 is
// the worst shard's p99 — the number an operator acting on tail latency
// wants. The caller sets Path and Logs on the final aggregate.
func MergeWALTelemetry(agg, t WALTelemetry) WALTelemetry {
	agg.Appends += t.Appends
	agg.AppendedBytes += t.AppendedBytes
	agg.Fsyncs += t.Fsyncs
	agg.Coalesced += t.Coalesced
	agg.Checkpoints += t.Checkpoints
	if total := agg.Coalesced + agg.Fsyncs; total > 0 {
		agg.CoalesceRatio = float64(agg.Coalesced) / float64(total)
	}
	agg.LastLSN += t.LastLSN
	agg.DurableLSN += t.DurableLSN
	agg.CheckpointLSN += t.CheckpointLSN
	agg.CheckpointLag += t.CheckpointLag
	agg.LogBytes += t.LogBytes
	agg.LiveBytes += t.LiveBytes
	agg.FsyncLatency = mergeHistSummary(agg.FsyncLatency, t.FsyncLatency)
	agg.BatchSize = mergeHistSummary(agg.BatchSize, t.BatchSize)
	agg.AppendBytes = mergeHistSummary(agg.AppendBytes, t.AppendBytes)
	agg.CheckpointDuration = mergeHistSummary(agg.CheckpointDuration, t.CheckpointDuration)
	return agg
}

func mergeHistSummary(a, b HistSummary) HistSummary {
	out := HistSummary{
		Count: a.Count + b.Count,
		Sum:   a.Sum + b.Sum,
		P50:   max(a.P50, b.P50),
		P95:   max(a.P95, b.P95),
		P99:   max(a.P99, b.P99),
	}
	// Window lists come from the same rolling spans on every log, so they
	// merge positionally; a length mismatch keeps the longer tail as-is.
	n := len(a.Windows)
	if len(b.Windows) > n {
		n = len(b.Windows)
	}
	for i := 0; i < n; i++ {
		switch {
		case i >= len(a.Windows):
			out.Windows = append(out.Windows, b.Windows[i])
		case i >= len(b.Windows):
			out.Windows = append(out.Windows, a.Windows[i])
		default:
			wa, wb := a.Windows[i], b.Windows[i]
			out.Windows = append(out.Windows, WindowSnapshot{
				Window: wa.Window,
				Count:  wa.Count + wb.Count,
				Sum:    wa.Sum + wb.Sum,
				P50:    max(wa.P50, wb.P50),
				P95:    max(wa.P95, wb.P95),
				P99:    max(wa.P99, wb.P99),
			})
		}
	}
	return out
}
