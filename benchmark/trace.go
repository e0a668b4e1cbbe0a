package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"dynq/internal/stats"
)

// spanRec is one recorded call: which layer function, which operation it
// belongs to, which span caused it, when, and what it counted.
type spanRec struct {
	Name    string           `json:"name"`
	OpID    int              `json:"op_id"`
	Parent  int              `json:"parent"` // index into the span list, -1 for an operation's root
	StartNS int64            `json:"start_ns"`
	EndNS   int64            `json:"end_ns"`
	Counts  map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory; they are written out once, when the run
// ends. Spans are recorded from the harness's side of each call — spans
// inside the program are a later change — so nesting below the public
// surface is rebuilt as a ladder: the same query is issued at each depth
// and a layer's self time is its rung minus the rung below.
type tracer struct {
	origin time.Time
	spans  []spanRec
	ops    int
	spent  time.Duration // recording the spans of ticks, the bulk of them
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) nextOp() int {
	t.ops++
	return t.ops
}

// span records one call and returns its index, for children to refer to.
func (t *tracer) span(name string, op, parent int, start time.Time, d time.Duration, counts map[string]int64) int {
	from := start.Sub(t.origin).Nanoseconds()
	t.spans = append(t.spans, spanRec{name, op, parent, from, from + d.Nanoseconds(), counts})
	return len(t.spans) - 1
}

var frameSpanName = [strategies]string{"dynq.snapshot", "dynq.pdq_fetch", "dynq.npdq_snapshot"}

// flight records one tick: a root span per strategy's pass over the
// frames and a child per frame call.
func (t *tracer) flight(f *flight, cost stats.Snapshot) {
	op := t.nextOp()
	for s := 0; s < strategies; s++ {
		n := len(f.start[s])
		last := f.start[s][n-1].Add(f.lat[s][n-1])
		root := t.span("tick."+strategyName[s], op, -1, f.start[s][0], last.Sub(f.start[s][0]), map[string]int64{
			"frames": int64(n), "tick_reads": cost.Reads(), "tick_dist_comps": cost.DistanceComps,
		})
		for i, at := range f.start[s] {
			t.span(frameSpanName[s], op, root, at, f.lat[s][i], map[string]int64{"results": int64(len(f.ans[s][i]))})
		}
	}
}

// selfTimes returns, per span name, the summed self time: a span's
// duration minus the part of it its direct children cover.
func selfTimes(spans []spanRec) map[string]time.Duration {
	covered := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.EndNS - s.StartNS
		}
	}
	out := map[string]time.Duration{}
	for i, s := range spans {
		out[s.Name] += time.Duration(s.EndNS - s.StartNS - covered[i])
	}
	return out
}

// resultsDir is the results directory next to the benchmark's sources,
// whether the process was started from the checkout root or from the
// benchmark directory.
func resultsDir() (string, error) {
	dir := "results"
	if _, err := os.Stat(filepath.Join("benchmark", "results")); err == nil {
		dir = filepath.Join("benchmark", "results")
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// write stores the spans as results/trace-<workload>.json.
func (t *tracer) write(workload string) (string, error) {
	dir, err := resultsDir()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"workload": workload, "spans": t.spans}); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
