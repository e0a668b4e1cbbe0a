package dynq

import (
	"context"
	"time"

	"dynq/internal/obs"
)

// writeSpanOp names the traced span covering one ApplyUpdates batch. It
// is a child of the netq request's op span, so a trace read from
// /debug/trace?trace=<id> shows client → apply-updates → write stages.
const writeSpanOp = "write.apply-updates"

// Write stage names, in pipeline order.
const (
	stageValidate  = "validate"   // segment conversion and partitioning
	stageWALAppend = "wal-append" // encoding + buffered pwrite of the batch record
	stageTreeApply = "tree-apply" // index mutation under the write lock
	stageFsyncWait = "fsync-wait" // durability wait (group commit) outside the lock
)

// writeSpan instruments one ApplyUpdates batch. When the context carries
// a tracer (the netq server threads one per request), the batch is
// recorded as a traced span with per-stage wall-time deltas, continuing
// the client's 128-bit trace id exactly as read queries do. Without a
// tracer every method is a no-op and the write path pays nothing.
type writeSpan struct {
	tracer *obs.Tracer
	tc     obs.TraceContext
	start  time.Time
	stages []obs.StageDelta
}

func beginWriteSpan(ctx context.Context) writeSpan {
	tracer, ok := obs.TracerFromContext(ctx)
	if !ok {
		return writeSpan{}
	}
	ws := writeSpan{tracer: tracer, start: time.Now()}
	if tc, ok := obs.TraceFromContext(ctx); ok {
		ws.tc = tc.Child()
	} else {
		ws.tc = obs.NewTraceContext()
	}
	return ws
}

// now returns the current time when tracing is active and the zero time
// otherwise, so stage marks cost nothing on untraced writes.
func (w *writeSpan) now() time.Time {
	if w.tracer == nil {
		return time.Time{}
	}
	return time.Now()
}

// since measures the elapsed time from a mark taken with now.
func (w *writeSpan) since(mark time.Time) time.Duration {
	if w.tracer == nil {
		return 0
	}
	return time.Since(mark)
}

// stage appends one stage's wall-time attribution.
func (w *writeSpan) stage(name string, d time.Duration) {
	if w.tracer == nil {
		return
	}
	w.stages = append(w.stages, obs.TimedStage(name, d))
}

// finish records the span: batch size, outcome, and the stages measured
// before the batch succeeded or bailed.
func (w *writeSpan) finish(updates int, err error) {
	if w.tracer == nil {
		return
	}
	span := obs.Span{
		Op:      writeSpanOp,
		Shard:   obs.NoShard,
		Start:   w.start,
		WallNS:  time.Since(w.start).Nanoseconds(),
		Results: updates,
		Stages:  w.stages,
	}
	if err != nil {
		span.Err = err.Error()
	}
	w.tc.Annotate(&span)
	w.tracer.Record(span)
}
