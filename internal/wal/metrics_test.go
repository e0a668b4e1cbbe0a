package wal

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dynq/internal/obs"
)

// fakeClock drives a Log's instrumentation deterministically.
type fakeClock struct{ cur time.Time }

func (c *fakeClock) now() time.Time          { return c.cur }
func (c *fakeClock) advance(d time.Duration) { c.cur = c.cur.Add(d) }

func createClocked(t *testing.T) (*Log, *fakeClock) {
	t.Helper()
	l, err := Create(filepath.Join(t.TempDir(), "metrics.wal"), immediate)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	clk := &fakeClock{cur: time.Unix(1_700_000_000, 0)}
	l.WithClock(clk.now)
	return l, clk
}

// TestTelemetryCountsAndBatchSize appends a pile of records, syncs once,
// and checks the cumulative telemetry: every counter, the batch-size
// distribution (one fsync covered the whole pile), and checkpoint lag.
func TestTelemetryCountsAndBatchSize(t *testing.T) {
	l, _ := createClocked(t)
	const k = 7
	var last uint64
	for i := 0; i < k; i++ {
		lsn, err := l.Append([]byte(fmt.Sprintf("rec-%d", i)))
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		last = lsn
	}
	if err := l.SyncNow(last); err != nil {
		t.Fatalf("SyncNow: %v", err)
	}

	tel := l.Telemetry(obs.DefWindows())
	if tel.Appends != k {
		t.Errorf("Appends = %d, want %d", tel.Appends, k)
	}
	if tel.Fsyncs < 1 {
		t.Errorf("Fsyncs = %d, want >= 1", tel.Fsyncs)
	}
	if tel.LastLSN != last || tel.DurableLSN != last {
		t.Errorf("LSNs = (last %d, durable %d), want both %d", tel.LastLSN, tel.DurableLSN, last)
	}
	if tel.CheckpointLag != k {
		t.Errorf("CheckpointLag = %d, want %d", tel.CheckpointLag, k)
	}
	if tel.AppendBytes.Count != k {
		t.Errorf("AppendBytes.Count = %d, want %d", tel.AppendBytes.Count, k)
	}
	// One fsync durable-advanced the whole pile, so the batch-size
	// distribution's total mass equals the record count.
	if got := tel.BatchSize.Sum; got != k {
		t.Errorf("BatchSize.Sum = %v, want %d", got, k)
	}
	if tel.FsyncLatency.Count != tel.Fsyncs {
		t.Errorf("FsyncLatency.Count = %d, want %d fsyncs", tel.FsyncLatency.Count, tel.Fsyncs)
	}
	if tel.LiveBytes <= 0 || tel.LogBytes <= tel.LiveBytes {
		t.Errorf("LogBytes = %d, LiveBytes = %d: want header+records layout", tel.LogBytes, tel.LiveBytes)
	}
}

// TestFsyncWindowParityAndRotation checks the rolling-window side of the
// fsync histogram against its cumulative twin: while all observations
// sit inside the window, the two agree; once the fake clock jumps past
// the ring, the window drains and the cumulative totals persist.
func TestFsyncWindowParityAndRotation(t *testing.T) {
	l, clk := createClocked(t)
	const k = 5
	for i := 0; i < k; i++ {
		appendSync(t, l, fmt.Sprintf("w-%d", i))
		clk.advance(3 * time.Second) // spread across slots, all within 5m
	}

	tel := l.Telemetry([]time.Duration{5 * time.Minute})
	if len(tel.FsyncLatency.Windows) != 1 {
		t.Fatalf("want 1 window snapshot, got %d", len(tel.FsyncLatency.Windows))
	}
	win := tel.FsyncLatency.Windows[0]
	if win.Count != tel.FsyncLatency.Count {
		t.Errorf("5m window count = %d, cumulative = %d: want parity while everything is recent",
			win.Count, tel.FsyncLatency.Count)
	}
	if win.Sum != tel.FsyncLatency.Sum {
		t.Errorf("5m window sum = %v, cumulative = %v", win.Sum, tel.FsyncLatency.Sum)
	}

	// Idle past the whole ring: the window must empty, the cumulative
	// histogram must not.
	clk.advance(10 * time.Minute)
	tel = l.Telemetry([]time.Duration{5 * time.Minute})
	if got := tel.FsyncLatency.Windows[0].Count; got != 0 {
		t.Errorf("after 10m idle, 5m window count = %d, want 0", got)
	}
	if tel.FsyncLatency.Count < int64(k) {
		t.Errorf("cumulative fsync count = %d after rotation, want >= %d", tel.FsyncLatency.Count, k)
	}
}

// TestCheckpointTelemetry checks that Checkpoint lands in the duration
// histogram and resets the live-log gauges: lag back to zero, the file
// truncated to its header region.
func TestCheckpointTelemetry(t *testing.T) {
	l, clk := createClocked(t)
	var last uint64
	for i := 0; i < 4; i++ {
		last = appendSync(t, l, fmt.Sprintf("c-%d", i))
	}
	if lag := l.CheckpointLag(); lag != 4 {
		t.Fatalf("pre-checkpoint lag = %d, want 4", lag)
	}
	clk.advance(time.Second)
	if err := l.Checkpoint(last); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}

	tel := l.Telemetry(nil)
	if tel.Checkpoints != 1 {
		t.Errorf("Checkpoints = %d, want 1", tel.Checkpoints)
	}
	if tel.CheckpointDuration.Count != 1 {
		t.Errorf("CheckpointDuration.Count = %d, want 1", tel.CheckpointDuration.Count)
	}
	if tel.CheckpointLag != 0 {
		t.Errorf("post-checkpoint lag = %d, want 0", tel.CheckpointLag)
	}
	if tel.LiveBytes != 0 {
		t.Errorf("post-checkpoint LiveBytes = %d, want 0", tel.LiveBytes)
	}
	if tel.LogBytes != recordsStart {
		t.Errorf("post-checkpoint LogBytes = %d, want the %d-byte header region", tel.LogBytes, recordsStart)
	}
	if tel.CheckpointLSN != last {
		t.Errorf("CheckpointLSN = %d, want %d", tel.CheckpointLSN, last)
	}
}

// TestRegisterMetricsExport checks the registry wiring: the histograms
// and gauges land under their dynq_wal_* names with live values, and the
// append and checkpoint totals Stats reports are the histograms' count
// and sum.
func TestRegisterMetricsExport(t *testing.T) {
	l, _ := createClocked(t)
	reg := obs.NewRegistry()
	l.RegisterMetrics(reg)
	first := appendSync(t, l, "exported")
	if err := l.Checkpoint(first); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	appendSync(t, l, "exported again")

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	dump := buf.String()
	st := l.Stats()
	if st.Appends != 2 || st.Checkpoints != 1 || st.Fsyncs == 0 {
		t.Fatalf("Stats = %+v, want 2 appends, 1 checkpoint, some fsyncs", st)
	}
	for _, want := range []string{
		fmt.Sprintf("dynq_wal_append_bytes_count %d\n", st.Appends),
		fmt.Sprintf("dynq_wal_append_bytes_sum %d\n", st.AppendedBytes),
		fmt.Sprintf("dynq_wal_checkpoint_seconds_count %d\n", st.Checkpoints),
		fmt.Sprintf("dynq_wal_fsyncs_total %d\n", st.Fsyncs),
		fmt.Sprintf("dynq_wal_coalesced_total %d\n", st.Coalesced),
		fmt.Sprintf("dynq_wal_log_bytes %d\n", l.Size()),
		"dynq_wal_checkpoint_lag_records 1\n",
		"dynq_wal_fsync_seconds_count ",
		"dynq_wal_batch_records_count ",
		`dynq_wal_fsync_window_seconds{window="1m0s",quantile="0.99"}`,
	} {
		if !strings.Contains(dump, want) {
			t.Errorf("registry dump missing %q:\n%s", want, dump)
		}
	}
}
