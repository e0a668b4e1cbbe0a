package obs

import (
	"sync"
	"time"

	"dynq/internal/stats"
)

// StageDelta is the portion of an operation's cost attributable to one
// stage of the stack. Read stages carry counter deltas (pager, rtree,
// engine); write stages carry wall-time attribution instead (validate,
// wal-append, fsync-wait, tree-apply).
type StageDelta struct {
	Stage  string         `json:"stage"`
	WallNS int64          `json:"wall_ns,omitempty"`
	Delta  stats.Snapshot `json:"delta"`
}

// TimedStage builds a stage delta attributing wall time to one stage of
// a write's pipeline.
func TimedStage(stage string, d time.Duration) StageDelta {
	return StageDelta{Stage: stage, WallNS: d.Nanoseconds()}
}

// Stages decomposes a per-query stats.Snapshot delta into the pipeline's
// stages: the pager (buffer hits, page writes), the R-tree (node reads by
// level), and the engine that issued the traversal (distance
// computations, pruned nodes, answers). engine names the top stage, e.g.
// "pdq", "npdq", "snapshot", "knn".
func Stages(delta stats.Snapshot, engine string) []StageDelta {
	return []StageDelta{
		{Stage: "pager", Delta: stats.Snapshot{
			BufferHits: delta.BufferHits,
			PageWrites: delta.PageWrites,
		}},
		{Stage: "rtree", Delta: stats.Snapshot{
			InternalReads: delta.InternalReads,
			LeafReads:     delta.LeafReads,
		}},
		{Stage: engine, Delta: stats.Snapshot{
			DistanceComps: delta.DistanceComps,
			PrunedNodes:   delta.PrunedNodes,
			Results:       delta.Results,
		}},
	}
}

// Span is one traced query: the operation, its view window, the wall
// time, and the per-stage cost deltas measured around its evaluation.
// The TraceID/SpanID/ParentID triple correlates spans of one logical
// operation across processes and shards (see TraceContext); Shard is the
// partition index for per-shard child spans and -1 (or absent on older
// spans) for spans covering the whole operation.
type Span struct {
	ID       uint64       `json:"id"`
	TraceID  string       `json:"trace_id,omitempty"`
	SpanID   string       `json:"span_id,omitempty"`
	ParentID string       `json:"parent_id,omitempty"`
	Shard    int          `json:"shard"`
	Op       string       `json:"op"`
	Start    time.Time    `json:"start"`
	WallNS   int64        `json:"wall_ns"`
	ViewMin  []float64    `json:"view_min,omitempty"`
	ViewMax  []float64    `json:"view_max,omitempty"`
	T0       float64      `json:"t0"`
	T1       float64      `json:"t1"`
	Results  int          `json:"results"`
	Err      string       `json:"err,omitempty"`
	Stages   []StageDelta `json:"stages,omitempty"`
}

// NoShard is the Span.Shard value of a span that covers the whole
// operation rather than one partition.
const NoShard = -1

// Tracer ring-buffers the most recent query spans. Record is cheap (one
// mutexed slot write); dump the buffer with Recent.
type Tracer struct {
	mu   sync.Mutex
	ring []Span
	next uint64 // total spans ever recorded; also the next span id
}

// NewTracer creates a tracer keeping the last capacity spans (minimum 1).
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{ring: make([]Span, capacity)}
}

// Record stores a span, assigning it the next id. It returns the id.
func (t *Tracer) Record(s Span) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = t.next
	t.ring[t.next%uint64(len(t.ring))] = s
	t.next++
	return s.ID
}

// Len reports the number of spans currently buffered.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.next < uint64(len(t.ring)) {
		return int(t.next)
	}
	return len(t.ring)
}

// Recent returns the buffered spans, oldest first.
func (t *Tracer) Recent() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := uint64(len(t.ring))
	start := uint64(0)
	count := t.next
	if t.next > n {
		start = t.next - n
		count = n
	}
	out := make([]Span, 0, count)
	for i := start; i < t.next; i++ {
		out = append(out, t.ring[i%n])
	}
	return out
}

// Trace returns the buffered spans belonging to one trace id, oldest
// first.
func (t *Tracer) Trace(traceID string) []Span {
	var out []Span
	for _, s := range t.Recent() {
		if s.TraceID == traceID {
			out = append(out, s)
		}
	}
	return out
}

// TraceDoc is the correlated-JSON export of one trace: every buffered
// span sharing a trace id, oldest first.
type TraceDoc struct {
	TraceID string `json:"trace_id"`
	Spans   []Span `json:"spans"`
}

// Traces groups the buffered spans by trace id, in order of each trace's
// oldest span. Spans recorded without a trace id are grouped under "".
func (t *Tracer) Traces() []TraceDoc {
	var docs []TraceDoc
	index := make(map[string]int)
	for _, s := range t.Recent() {
		i, ok := index[s.TraceID]
		if !ok {
			i = len(docs)
			index[s.TraceID] = i
			docs = append(docs, TraceDoc{TraceID: s.TraceID})
		}
		docs[i].Spans = append(docs[i].Spans, s)
	}
	return docs
}
