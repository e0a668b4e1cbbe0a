package obs

import (
	"encoding/json"
	"testing"

	"dynq/internal/stats"
)

func TestTracerRingBuffer(t *testing.T) {
	tr := NewTracer(2)
	tr.Record(Span{Op: "a"})
	tr.Record(Span{Op: "b"})
	tr.Record(Span{Op: "c"})
	got := tr.Recent()
	if len(got) != 2 || got[0].Op != "b" || got[1].Op != "c" {
		t.Fatalf("recent = %+v", got)
	}
	if got[0].ID != 1 || got[1].ID != 2 {
		t.Errorf("ids = %d, %d; want 1, 2", got[0].ID, got[1].ID)
	}
	if tr.Len() != 2 {
		t.Errorf("len = %d", tr.Len())
	}
}

func TestTracerTraceFilterAndGrouping(t *testing.T) {
	tr := NewTracer(16)
	a, b := NewTraceContext(), NewTraceContext()
	for i, tc := range []TraceContext{a, a.Child(), b, a.Child()} {
		var s Span
		tc.Annotate(&s)
		s.Op = "op"
		s.Shard = i - 1 // exercise both NoShard and shard indexes
		tr.Record(s)
	}
	tr.Record(Span{Op: "untraced", Shard: NoShard})

	got := tr.Trace(a.TraceID.String())
	if len(got) != 3 {
		t.Fatalf("Trace(a) = %d spans, want 3", len(got))
	}
	for _, s := range got[1:] {
		if s.ParentID != a.SpanID.String() {
			t.Errorf("child parent = %q, want %s", s.ParentID, a.SpanID)
		}
	}

	docs := tr.Traces()
	if len(docs) != 3 { // a, b, and the untraced group ""
		t.Fatalf("Traces() = %d groups, want 3", len(docs))
	}
	if docs[0].TraceID != a.TraceID.String() || len(docs[0].Spans) != 3 {
		t.Errorf("group 0 = %s with %d spans", docs[0].TraceID, len(docs[0].Spans))
	}
	if docs[2].TraceID != "" || docs[2].Spans[0].Op != "untraced" {
		t.Errorf("untraced group = %+v", docs[2])
	}

	// The correlated document round-trips through encoding/json.
	raw, err := json.Marshal(docs[0])
	if err != nil {
		t.Fatal(err)
	}
	var back TraceDoc
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.TraceID != docs[0].TraceID || len(back.Spans) != 3 || back.Spans[1].Shard != 0 {
		t.Errorf("round trip = %+v", back)
	}
}

func TestStagesDecomposition(t *testing.T) {
	delta := stats.Snapshot{
		InternalReads: 2, LeafReads: 5, DistanceComps: 30,
		Results: 7, BufferHits: 3, PageWrites: 1, PrunedNodes: 4,
	}
	st := Stages(delta, "pdq")
	if len(st) != 3 {
		t.Fatalf("stages = %d", len(st))
	}
	if st[0].Stage != "pager" || st[0].Delta.BufferHits != 3 || st[0].Delta.PageWrites != 1 {
		t.Errorf("pager stage = %+v", st[0])
	}
	if st[1].Stage != "rtree" || st[1].Delta.Reads() != 7 {
		t.Errorf("rtree stage = %+v", st[1])
	}
	if st[2].Stage != "pdq" || st[2].Delta.DistanceComps != 30 || st[2].Delta.PrunedNodes != 4 || st[2].Delta.Results != 7 {
		t.Errorf("engine stage = %+v", st[2])
	}
	// The stages partition the delta: summing them restores it.
	var sum stats.Snapshot
	for _, s := range st {
		sum = sum.Add(s.Delta)
	}
	if sum != delta {
		t.Errorf("stage sum %+v != delta %+v", sum, delta)
	}
}
