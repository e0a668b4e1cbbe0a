package obs

import (
	"testing"
	"time"
)

func span(op string, wall time.Duration) Span {
	return Span{Op: op, WallNS: wall.Nanoseconds()}
}

// TestRecordAtThresholds checks the per-call bar: an explicit threshold
// wins over the log's default, zero falls back to the default, and a
// negative threshold disables capture for that call.
func TestRecordAtThresholds(t *testing.T) {
	l := NewSlowLog(8, 100*time.Millisecond)

	if l.RecordAt(span("read", 50*time.Millisecond), 0) {
		t.Error("50ms under the 100ms default was captured with threshold 0")
	}
	if !l.RecordAt(span("read", 150*time.Millisecond), 0) {
		t.Error("150ms over the 100ms default was dropped with threshold 0")
	}
	// Writes can run a stricter bar over the same ring.
	if !l.RecordAt(span("write", 20*time.Millisecond), 10*time.Millisecond) {
		t.Error("20ms over an explicit 10ms bar was dropped")
	}
	if l.RecordAt(span("write", 5*time.Millisecond), 10*time.Millisecond) {
		t.Error("5ms under an explicit 10ms bar was captured")
	}
	if l.RecordAt(span("write", time.Hour), -1) {
		t.Error("a negative threshold must disable capture for that call")
	}
	if got := l.Captured(); got != 2 {
		t.Errorf("Captured = %d, want 2", got)
	}
}

// TestRecentOpFiltering interleaves two op classes in one ring and
// checks that RecentOp isolates each while an empty op still sees both.
func TestRecentOpFiltering(t *testing.T) {
	l := NewSlowLog(16, time.Millisecond)
	for i := 0; i < 3; i++ {
		l.Record(span("snapshot", 10*time.Millisecond))
		l.Record(span("apply-updates", 20*time.Millisecond))
	}

	if got := len(l.RecentOp("", 100)); got != 6 {
		t.Fatalf("RecentOp(\"\") = %d entries, want 6", got)
	}
	writes := l.RecentOp("apply-updates", 100)
	if len(writes) != 3 {
		t.Fatalf("RecentOp(apply-updates) = %d entries, want 3", len(writes))
	}
	for _, e := range writes {
		if e.Span.Op != "apply-updates" {
			t.Errorf("filtered list leaked op %q", e.Span.Op)
		}
	}
	// The limit applies to matches, not ring slots scanned.
	if got := len(l.RecentOp("snapshot", 2)); got != 2 {
		t.Errorf("RecentOp(snapshot, 2) = %d entries, want 2", got)
	}
	if got := len(l.RecentOp("missing", 100)); got != 0 {
		t.Errorf("RecentOp(missing) = %d entries, want 0", got)
	}
}
