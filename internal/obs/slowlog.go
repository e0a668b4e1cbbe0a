package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// DefSlowThreshold is the default slow-operation capture threshold.
const DefSlowThreshold = 250 * time.Millisecond

// SlowEntry is one captured slow operation: the full span (trace ids,
// parameters, per-stage cost deltas) plus the threshold it exceeded.
type SlowEntry struct {
	Seq         uint64        `json:"seq"`
	Span        Span          `json:"span"`
	ThresholdNS time.Duration `json:"threshold_ns"`
}

// SlowLog ring-buffers every operation — read queries and writes alike —
// whose wall time met or exceeded a configurable threshold, keeping the
// operation's full trace span (per-stage cost deltas, view parameters,
// trace ids) for post-hoc diagnosis. Entries are filterable by op name
// with RecentOp. Safe for concurrent use; the threshold can be adjusted
// at runtime.
type SlowLog struct {
	threshold atomic.Int64 // nanoseconds; <=0 disables capture

	mu   sync.Mutex
	ring recordRing[SlowEntry] // an entry's Seq is its number in the ring
}

// NewSlowLog creates a slow-query log keeping the last capacity entries
// (minimum 1) and capturing queries at or above threshold (0 gets
// DefSlowThreshold; negative disables capture).
func NewSlowLog(capacity int, threshold time.Duration) *SlowLog {
	l := &SlowLog{ring: newRecordRing[SlowEntry](capacity)}
	l.SetThreshold(threshold)
	return l
}

// SetThreshold adjusts the capture threshold (0 restores the default;
// negative disables capture).
func (l *SlowLog) SetThreshold(d time.Duration) {
	if d == 0 {
		d = DefSlowThreshold
	}
	l.threshold.Store(int64(d))
}

// Threshold reports the current capture threshold (negative = disabled).
func (l *SlowLog) Threshold() time.Duration {
	return time.Duration(l.threshold.Load())
}

// Record captures the span if its wall time meets the log's threshold,
// reporting whether it was kept.
func (l *SlowLog) Record(s Span) bool {
	th := l.threshold.Load()
	if th < 0 || s.WallNS < th {
		return false
	}
	l.mu.Lock()
	seq, slot := l.ring.add()
	*slot = SlowEntry{Seq: seq, Span: s, ThresholdNS: time.Duration(th)}
	l.mu.Unlock()
	return true
}

// Captured reports the number of slow queries ever captured (entries
// older than the ring's capacity have rotated out).
func (l *SlowLog) Captured() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.next
}

// RecentOp returns up to limit buffered entries whose span op matches,
// newest first. An empty op matches everything; limit <= 0 means all
// buffered.
func (l *SlowLog) RecentOp(op string, limit int) []SlowEntry {
	l.mu.Lock()
	out := l.ring.newest(limit, func(e *SlowEntry) bool { return op == "" || e.Span.Op == op })
	l.mu.Unlock()
	if out == nil {
		out = []SlowEntry{} // /debug/slow answers an empty list, not null
	}
	return out
}
