package wal

import (
	"time"

	"dynq/internal/obs"
)

// batchBuckets bound the records-per-fsync-round distribution: powers of
// two from a lone writer to a deeply piled-up group commit.
func batchBuckets() []float64 {
	return []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192}
}

// appendByteBuckets bound the encoded-record-size distribution, from a
// single-update record to the 64 MiB payload cap.
func appendByteBuckets() []float64 {
	return []float64{64, 256, 1024, 4096, 16384, 65536, 262144, 1 << 20, 4 << 20, 16 << 20, 64 << 20}
}

// walMetrics is the log's instrumentation: windowed histograms over the
// group-commit machinery, fed from the append and fsync paths and
// snapshotted into the Telemetry.WAL section.
type walMetrics struct {
	fsync       *obs.WindowedHistogram // fsync latency, seconds
	batch       *obs.WindowedHistogram // records made durable per fsync round
	appendBytes *obs.WindowedHistogram // encoded record bytes per append
	checkpoint  *obs.WindowedHistogram // checkpoint duration, seconds
}

func newWALMetrics() walMetrics {
	windows, interval := obs.DefWindows(), obs.DefWindowInterval
	max := windows[len(windows)-1]
	return walMetrics{
		fsync:       obs.NewWindowedHistogram(obs.DefLatencyBuckets(), interval, max),
		batch:       obs.NewWindowedHistogram(batchBuckets(), interval, max),
		appendBytes: obs.NewWindowedHistogram(appendByteBuckets(), interval, max),
		checkpoint:  obs.NewWindowedHistogram(obs.DefLatencyBuckets(), interval, max),
	}
}

// WithClock replaces the log's time source — wall-clock stage timing and
// the rolling histogram windows — for tests. Call before any append or
// sync; not safe concurrently with log use.
func (l *Log) WithClock(now func() time.Time) *Log {
	l.nowFn = now
	l.met.fsync.WithClock(now)
	l.met.batch.WithClock(now)
	l.met.appendBytes.WithClock(now)
	l.met.checkpoint.WithClock(now)
	return l
}

// Size returns the log's current file size in bytes, headers included.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tail
}

// LiveBytes returns the encoded bytes of records appended since the last
// checkpoint (the region a checkpoint would truncate away).
func (l *Log) LiveBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tail - recordsStart
}

// Epoch returns the committed header sequence, which stamps new records.
func (l *Log) Epoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// CheckpointLag returns the number of records appended but not yet
// checkpointed into the base file. LSNs are dense, so the LSN delta is
// the live record count.
func (l *Log) CheckpointLag() uint64 {
	l.mu.Lock()
	cp := l.checkpoint
	l.mu.Unlock()
	if last := l.appended.Load(); last > cp {
		return last - cp
	}
	return 0
}

// coalesceRatio is the fraction of durability waits satisfied by another
// writer's fsync round — the group-commit win.
func coalesceRatio(st Stats) float64 {
	total := st.Coalesced + st.Fsyncs
	if total == 0 {
		return 0
	}
	return float64(st.Coalesced) / float64(total)
}

// Telemetry snapshots the log's instrumentation into the wire/HTTP
// telemetry section, with rolling histogram windows over the given
// spans (shortest first).
func (l *Log) Telemetry(windows []time.Duration) obs.WALTelemetry {
	st := l.Stats()
	l.mu.Lock()
	tail, cp := l.tail, l.checkpoint
	l.mu.Unlock()
	last := l.appended.Load()
	t := obs.WALTelemetry{
		Path:          l.path,
		Appends:       st.Appends,
		AppendedBytes: st.AppendedBytes,
		Fsyncs:        st.Fsyncs,
		Coalesced:     st.Coalesced,
		CoalesceRatio: coalesceRatio(st),
		Checkpoints:   st.Checkpoints,

		LastLSN:       last,
		DurableLSN:    l.DurableLSN(),
		CheckpointLSN: cp,
		LogBytes:      tail,
		LiveBytes:     tail - recordsStart,

		FsyncLatency:       obs.SummarizeWindowed(l.met.fsync, windows),
		BatchSize:          obs.SummarizeWindowed(l.met.batch, windows),
		AppendBytes:        obs.SummarizeWindowed(l.met.appendBytes, windows),
		CheckpointDuration: obs.SummarizeWindowed(l.met.checkpoint, windows),
	}
	if last > cp {
		t.CheckpointLag = last - cp
	}
	return t
}

// RegisterMetrics exposes the log's instrumentation in a registry:
// cumulative histograms, counter totals, and live gauges, plus rolling
// fsync-latency quantiles matching the netq per-op window gauges. The
// labels are stamped on every series — a sharded database registers
// each shard's log with a {shard="i"} label, so the dynq_wal_* families
// carry one series per log instead of colliding on the same name.
func (l *Log) RegisterMetrics(reg *obs.Registry, labels ...obs.Label) {
	reg.SetHelp("dynq_wal_fsync_seconds", "Group-commit fsync latency in seconds.")
	reg.SetHelp("dynq_wal_batch_records", "Records made durable per group-commit fsync round.")
	reg.SetHelp("dynq_wal_append_bytes", "Encoded record bytes per WAL append.")
	reg.SetHelp("dynq_wal_checkpoint_seconds", "WAL checkpoint (truncate + header commit) duration in seconds.")
	reg.AttachHistogram("dynq_wal_fsync_seconds", l.met.fsync.Cumulative(), labels...)
	reg.AttachHistogram("dynq_wal_batch_records", l.met.batch.Cumulative(), labels...)
	reg.AttachHistogram("dynq_wal_append_bytes", l.met.appendBytes.Cumulative(), labels...)
	reg.AttachHistogram("dynq_wal_checkpoint_seconds", l.met.checkpoint.Cumulative(), labels...)

	reg.SetHelp("dynq_wal_appends_total", "Records appended to the WAL.")
	reg.GaugeFunc("dynq_wal_appends_total", func() float64 { return float64(l.stAppends.Load()) }, labels...)
	reg.SetHelp("dynq_wal_appended_bytes_total", "Record bytes appended to the WAL (headers excluded).")
	reg.GaugeFunc("dynq_wal_appended_bytes_total", func() float64 { return float64(l.stBytes.Load()) }, labels...)
	reg.SetHelp("dynq_wal_fsyncs_total", "Fsync syscalls issued by group-commit rounds.")
	reg.GaugeFunc("dynq_wal_fsyncs_total", func() float64 { return float64(l.stFsyncs.Load()) }, labels...)
	reg.SetHelp("dynq_wal_coalesced_total", "Durability waits satisfied by another writer's fsync.")
	reg.GaugeFunc("dynq_wal_coalesced_total", func() float64 { return float64(l.stCoalesced.Load()) }, labels...)
	reg.SetHelp("dynq_wal_checkpoints_total", "WAL checkpoint truncations.")
	reg.GaugeFunc("dynq_wal_checkpoints_total", func() float64 { return float64(l.stCheckpoints.Load()) }, labels...)

	reg.SetHelp("dynq_wal_coalesce_ratio", "Fraction of durability waits satisfied by another writer's fsync.")
	reg.GaugeFunc("dynq_wal_coalesce_ratio", func() float64 { return coalesceRatio(l.Stats()) }, labels...)
	reg.SetHelp("dynq_wal_log_bytes", "Current WAL file size in bytes, headers included.")
	reg.GaugeFunc("dynq_wal_log_bytes", func() float64 { return float64(l.Size()) }, labels...)
	reg.SetHelp("dynq_wal_checkpoint_lag_records", "Records appended but not yet checkpointed into the base file.")
	reg.GaugeFunc("dynq_wal_checkpoint_lag_records", func() float64 { return float64(l.CheckpointLag()) }, labels...)

	reg.SetHelp("dynq_wal_fsync_window_seconds", "Rolling-window group-commit fsync latency quantiles.")
	l.met.fsync.RegisterWindowGauges(reg, "dynq_wal_fsync_window_seconds", obs.DefWindows(), labels...)
}
