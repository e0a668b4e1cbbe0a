package obs

import (
	"sync"
	"time"
)

// EventType classifies an operational event in the journal.
type EventType string

// Known event types. Components append to this set freely; the journal
// itself is type-agnostic.
const (
	EventRecovery        EventType = "recovery"         // open-time recovery completed
	EventDegradedEnter   EventType = "degraded_enter"   // database entered read-only mode
	EventDegradedExit    EventType = "degraded_exit"    // database left read-only mode
	EventOverloadBurst   EventType = "overload_burst"   // admission control rejecting reads
	EventChecksumFailure EventType = "checksum_failure" // page checksum mismatch on read
	EventServerStart     EventType = "server_start"     // netq server began serving
	EventServerStop      EventType = "server_stop"      // netq server shut down
	EventWALReplay       EventType = "wal_replay"       // open-time WAL replay re-applied records
	EventSyncFailure     EventType = "sync_failure"     // checkpoint sync failed with a WAL armed
	EventCheckpoint      EventType = "checkpoint"       // Sync checkpointed and truncated the WAL
	EventAutoCheckpoint  EventType = "auto_checkpoint"  // maintenance loop checkpointed on policy
	EventProbe           EventType = "probe"            // degraded-mode recovery probe attempted
	EventScrub           EventType = "scrub"            // background scrub pass completed or found corruption
)

// Event severities.
const (
	SeverityInfo  = "info"
	SeverityWarn  = "warn"
	SeverityError = "error"
)

// Event is one operational occurrence worth a queryable record: a
// recovery report, a degraded-mode flip, an overload burst, a checksum
// failure. Seq increases monotonically per journal and never repeats,
// so pollers can resume from the last Seq they saw.
type Event struct {
	Seq      uint64            `json:"seq"`
	Time     time.Time         `json:"time"`
	Type     EventType         `json:"type"`
	Severity string            `json:"severity"`
	Message  string            `json:"message"`
	Fields   map[string]string `json:"fields,omitempty"`
}

// Journal is a typed, bounded ring of operational events. Record is
// cheap (one mutexed slot write); readers get snapshots. Safe for
// concurrent use.
type Journal struct {
	mu     sync.Mutex
	ring   recordRing[Event] // an event's Seq is its number in the ring
	byType map[EventType]int64
	now    func() time.Time
}

// DefaultJournalCapacity bounds the process-wide journal.
const DefaultJournalCapacity = 1024

// defaultJournal is the process-wide journal: layers without their own
// plumbing (the pager's checksum verification, the database's degraded
// flag) record here, and servers serve it.
var defaultJournal = NewJournal(DefaultJournalCapacity)

// DefaultJournal returns the process-wide event journal.
func DefaultJournal() *Journal { return defaultJournal }

// NewJournal creates a journal keeping the last capacity events
// (minimum 1).
func NewJournal(capacity int) *Journal {
	return &Journal{
		ring:   newRecordRing[Event](capacity),
		byType: make(map[EventType]int64),
		now:    time.Now,
	}
}

// WithClock replaces the wall clock (tests only). Call before recording.
func (j *Journal) WithClock(now func() time.Time) *Journal {
	j.now = now
	return j
}

// Record appends an event, stamping its time and sequence number, and
// returns the assigned seq. fields may be nil.
func (j *Journal) Record(typ EventType, severity, message string, fields map[string]string) uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	seq, slot := j.ring.add()
	*slot = Event{
		Seq:      seq,
		Time:     j.now(),
		Type:     typ,
		Severity: severity,
		Message:  message,
		Fields:   fields,
	}
	j.byType[typ]++
	return seq
}

// Total reports the number of events ever recorded (the next seq).
func (j *Journal) Total() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ring.next
}

// CountsByType snapshots the per-type totals (including events that have
// rotated out of the ring).
func (j *Journal) CountsByType() map[EventType]int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make(map[EventType]int64, len(j.byType))
	for k, v := range j.byType {
		out[k] = v
	}
	return out
}

// Recent returns up to limit buffered events, newest first (limit <= 0
// means all buffered), or nil when none are buffered.
func (j *Journal) Recent(limit int) []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ring.newest(limit, nil)
}

// Since returns the buffered events with Seq >= seq, oldest first, or nil
// when there are none. Events older than the ring's capacity are gone;
// callers polling with a resume seq can detect loss by comparing the
// first returned Seq.
func (j *Journal) Since(seq uint64) []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	if es := j.ring.since(seq); len(es) > 0 {
		return es
	}
	return nil
}
