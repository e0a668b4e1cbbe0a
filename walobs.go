package dynq

import (
	"strconv"
	"time"

	"dynq/internal/obs"
	"dynq/internal/wal"
)

// WALInfo is a point-in-time view of one armed write-ahead log's header
// state, for inspection tools (dqload inspect prints it next to the
// recovery report).
type WALInfo struct {
	Path          string
	Epoch         uint64 // committed header sequence; stamps new records
	LastLSN       uint64 // highest LSN appended
	DurableLSN    uint64 // highest LSN known fsynced (or checkpointed)
	CheckpointLSN uint64 // records at or below it live in the base file
	LiveRecords   uint64 // records appended since the last checkpoint
	LiveBytes     int64  // encoded bytes of those records
	Size          int64  // total log file size, headers included
}

func walInfo(w *wal.Log) WALInfo {
	return WALInfo{
		Path:          w.Path(),
		Epoch:         w.Epoch(),
		LastLSN:       w.LastLSN(),
		DurableLSN:    w.DurableLSN(),
		CheckpointLSN: w.CheckpointLSN(),
		LiveRecords:   w.CheckpointLag(),
		LiveBytes:     w.LiveBytes(),
		Size:          w.Size(),
	}
}

// WALTelemetry snapshots the armed write-ahead logs' instrumentation —
// fsync latency, batch sizes, coalesce ratio, checkpoint state — with
// rolling histogram windows over the given spans. Several logs fold into
// one section (see obs.MergeWALTelemetry: totals sum, quantiles report
// the worst log, Logs says how many were merged). ok is false when the
// database has no WAL; the netq server then omits the section.
func (e *engine) WALTelemetry(windows []time.Duration) (obs.WALTelemetry, bool) {
	if e.logs == nil {
		return obs.WALTelemetry{}, false
	}
	agg := e.logs[0].Telemetry(windows)
	if len(e.logs) == 1 {
		return agg, true
	}
	for _, w := range e.logs[1:] {
		agg = obs.MergeWALTelemetry(agg, w.Telemetry(windows))
	}
	agg.Path = e.walLabel
	agg.Logs = len(e.logs)
	return agg, true
}

// RegisterWALMetrics exposes the armed logs' histograms, counters, and
// gauges in a registry — one {shard="i"}-labeled series per log when
// there are several — reporting whether a WAL was present to register.
func (e *engine) RegisterWALMetrics(reg *obs.Registry) bool {
	if e.logs == nil {
		return false
	}
	if len(e.logs) == 1 {
		e.logs[0].RegisterMetrics(reg)
		return true
	}
	for i, w := range e.logs {
		w.RegisterMetrics(reg, obs.L("shard", strconv.Itoa(i)))
	}
	return true
}
