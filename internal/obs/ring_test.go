package obs

import (
	"testing"
	"time"
)

// TestRingReadsAreBounded pins what a telemetry poll's reads cost on a
// full ring: the newest 16 journal events are copied once into a slice of
// 16, and a trace lookup that matches nothing copies nothing.
func TestRingReadsAreBounded(t *testing.T) {
	j := NewJournal(DefaultJournalCapacity)
	for i := 0; i < 2*DefaultJournalCapacity; i++ {
		j.Record(EventProbe, SeverityInfo, "probe", nil)
	}
	var es []Event
	if allocs := testing.AllocsPerRun(100, func() { es = j.Recent(16) }); allocs > 1 {
		t.Errorf("Journal.Recent(16) allocates %.0f times, want at most 1", allocs)
	}
	if len(es) != 16 || cap(es) > 16 {
		t.Fatalf("Journal.Recent(16): len %d cap %d, want 16 and at most 16", len(es), cap(es))
	}
	for i, e := range es {
		if want := uint64(2*DefaultJournalCapacity - 1 - i); e.Seq != want {
			t.Fatalf("Recent(16)[%d].Seq = %d, want %d (newest first)", i, e.Seq, want)
		}
	}

	tr := NewTracer(512)
	for i := 0; i < 600; i++ {
		tc := NewTraceContext()
		var s Span
		tc.Annotate(&s)
		tr.Record(s)
	}
	missing := NewTraceContext().TraceID.String()
	var spans []Span
	if allocs := testing.AllocsPerRun(100, func() { spans = tr.Trace(missing) }); allocs != 0 {
		t.Errorf("Tracer.Trace of a missing id allocates %.0f times, want 0", allocs)
	}
	if spans != nil {
		t.Errorf("Tracer.Trace of a missing id = %d spans, want nil", len(spans))
	}
}

// TestSlotRotationDoesNotAllocate pins that rotating a slot ring resets
// its slots in place: observing after one interval (one step) or after an
// idle gap longer than the ring (a full clear) allocates nothing, for the
// windowed histogram's bucket slots and the SLO tracker's outcome slots.
func TestSlotRotationDoesNotAllocate(t *testing.T) {
	clk := newFakeClock()
	w := NewWindowedHistogram(nil, time.Second, 5*time.Second).WithClock(clk.Now)
	slo := NewSLOTracker(5*time.Minute, 100*time.Millisecond).WithClock(clk.Now)
	w.Observe(0.001)
	slo.Record("snapshot", time.Millisecond, false)
	for _, gap := range []time.Duration{time.Second, time.Hour} {
		if allocs := testing.AllocsPerRun(100, func() {
			clk.Advance(gap)
			w.Observe(0.001)
			slo.Record("snapshot", time.Millisecond, false)
		}); allocs != 0 {
			t.Errorf("observing after a %v gap allocates %.0f times, want 0", gap, allocs)
		}
	}
}
