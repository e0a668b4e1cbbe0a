package main

import (
	"fmt"
	"math"
	"path/filepath"
	"time"

	"dynq"
)

// metricSpec names one reported metric. BENCHMARK.json carries the same
// names, units and directions; a test keeps the two in step.
type metricSpec struct {
	name, unit string
	higher     bool
}

// endToEnd is what a viewer, a feeder and an operator of the system feel.
// Every workload reports every one of them.
var endToEnd = []metricSpec{
	{"setup_s", "s", false},
	{"frames_per_s", "1/s", true},
	{"naive_frame_p50_ms", "ms", false},
	{"pdq_frame_p50_ms", "ms", false},
	{"npdq_frame_p50_ms", "ms", false},
	{"frame_on_time_share", "share", true},
	{"updates_per_s", "1/s", true},
	{"reads_per_frame", "count", false},
	{"dist_comps_per_frame", "count", false},
	{"live_heap_mb", "MB", false},
	{"write_amp", "ratio", false},
	{"stored_bytes_per_segment", "B", false},
}

// workloadWhy is the one-line reason each workload exists, in run order.
var workloadWhy = []struct{ name, why string }{
	{"fly-mem", "in-memory tree, no buffer: core, rtree node decode and geom do the work; a storage change must show nothing here"},
	{"fly-disk", "same script on a file with a 64-page buffer (about 3% of the tree): pager misses, file reads and decode-on-miss dominate a frame"},
	{"ingest-wal", "write-heavy durable ingest with checkpoints and a crash-reopen: wal append/fsync, rtree insert/split and pager write-back do the work"},
	{"live-wire", "2 shards with per-shard WAL behind netq on loopback, a closed-loop viewer against an open-loop feeder: the only place reads and writes contend"},
}

// config is one invocation's knobs.
type config struct {
	seed    int64
	seconds int
	trace   bool
	smoke   bool
	scratch string // directory for database files, inside the checkout
	setups  int    // how many times set-up is repeated (median reported)
	rounds  int
}

// scale shrinks populations for -smoke, which backs the fast tests.
func (c config) scale(segments int) int {
	if c.smoke {
		return segments / 10
	}
	return segments
}

// size turns -seconds into a fixed amount of work: rounds of identical
// size, each a whole number of tick-mix cycles, sized from the workload's
// pace on the reference sandbox. The work does not depend on how fast
// this run happens to go, so the counts repeat exactly and two commits
// are compared on the same operations.
func (c config) size(spec serialSpec) (rounds, perRound int) {
	if c.smoke {
		return c.rounds, 1
	}
	cycle := spec.stepsPerCycle()
	cycles := int(math.Round(float64(c.seconds) * spec.stepsPerSecond / float64(c.rounds*cycle)))
	if cycles < 1 {
		cycles = 1
	}
	return c.rounds, cycles * cycle
}

// flyPace is shared by fly-mem and fly-disk: they run the same script
// for the same number of steps, so their paper counts must be equal.
const flyPace = 20

func serialSpecs(c config) map[string]serialSpec {
	specs := map[string]serialSpec{
		"fly-mem": {
			name:     "fly-mem",
			segments: c.scale(paperSegments / 5),
			options:  func(string) dynq.Options { return dynq.Options{DualTimeAxes: true} },
			// Two ticks, then a batch of dead-reckoning corrections: two
			// thirds of the time is reads. With one tick a run flew too
			// few for the paper's counts to stay within 3 % across seeds.
			ticks: 2, batchesAfter: 1, syncEvery: 12, warmSteps: combos / 2, stepsPerSecond: flyPace,
		},
		"fly-disk": {
			name:     "fly-disk",
			segments: c.scale(paperSegments / 5),
			options: func(dir string) dynq.Options {
				return dynq.Options{DualTimeAxes: true, Path: filepath.Join(dir, "index.pages"), BufferPages: 64}
			},
			ticks: 2, batchesAfter: 1, syncEvery: 12, warmSteps: combos / 2, stepsPerSecond: flyPace,
		},
		"ingest-wal": {
			name:     "ingest-wal",
			segments: c.scale(paperSegments / 10),
			options: func(dir string) dynq.Options {
				p := filepath.Join(dir, "index.pages")
				return dynq.Options{DualTimeAxes: true, Path: p, WALPath: p + ".wal"}
			},
			// Three durable batches (10% of the updates corrections), then
			// three ticks over the grown tree: half of the time is writes.
			// With fewer ticks per batch a run flew too few for the paper's
			// counts to stay within 3 % across seeds (312 ticks: up to
			// 2.6 %).
			batchesBefore: 3, ticks: 3, syncEvery: 16, warmSteps: 4, fresh: 230, stepsPerSecond: 7.5,
			crashCheck: true,
		},
	}
	if c.smoke {
		for name, spec := range specs {
			spec.warmSteps = 1
			specs[name] = spec
		}
	}
	return specs
}

// outcome is one run's result.
type outcome struct {
	workload          string
	seed              int64
	metrics           map[string]float64
	raw               map[string]float64 // the timings among them as measured, before pacing
	samples           map[string]int
	layers            map[string]float64
	attempted, failed int
	firstWrong        string
	scriptHash        uint64
	measured          time.Duration
	slowdown          float64  // median over ticks of the pacer's factor
	notes             []string // lines for the human-readable report
	recoverTime       time.Duration
	replayed          int
}

func newOutcome(workload string, seed int64, hash uint64, measured time.Duration) *outcome {
	return &outcome{
		workload: workload, seed: seed, scriptHash: hash, measured: measured,
		metrics: map[string]float64{}, raw: map[string]float64{}, samples: map[string]int{},
	}
}

// timings fills in the metrics that are times or rates, from one clock.
func (c *clock) timings(m map[string]float64, rounds []round) {
	fps, ups := c.rates(rounds)
	m["frames_per_s"], m["updates_per_s"] = median(fps), median(ups)
	for s, name := range [strategies]string{"naive_frame_p50_ms", "pdq_frame_p50_ms", "npdq_frame_p50_ms"} {
		m[name] = median(c.frameMs[s])
	}
}

// finish derives the end-to-end metrics from what was recorded, all but
// live_heap_mb, which the caller takes last (see heapSince).
// setups holds each set-up's time in reference-sandbox time and as
// measured.
func (o *outcome) finish(rec *recorder, setups, rawSetups []float64, written, stored int64, segments int) {
	m, n := o.metrics, o.samples
	rec.ref.timings(m, rec.rounds)
	rec.raw.timings(o.raw, rec.rounds)
	m["setup_s"], o.raw["setup_s"], n["setup_s"] = median(setups), median(rawSetups), len(setups)
	n["frames_per_s"], n["updates_per_s"] = len(rec.rounds), len(rec.rounds)
	for s, name := range [strategies]string{"naive_frame_p50_ms", "pdq_frame_p50_ms", "npdq_frame_p50_ms"} {
		n[name] = len(rec.raw.frameMs[s])
	}
	m["frame_on_time_share"], n["frame_on_time_share"] = ratio(float64(rec.onTime), float64(rec.frames)), rec.frames
	m["reads_per_frame"] = ratio(float64(rec.cost.Reads()), float64(rec.frames))
	m["dist_comps_per_frame"] = ratio(float64(rec.cost.DistanceComps), float64(rec.frames))
	n["reads_per_frame"], n["dist_comps_per_frame"] = rec.frames, rec.frames
	n["live_heap_mb"], n["write_amp"], n["stored_bytes_per_segment"] = 1, len(rec.raw.batchMs), segments
	m["write_amp"] = ratio(float64(written), float64(rec.userBytes))
	m["stored_bytes_per_segment"] = ratio(float64(stored), float64(segments))
	o.slowdown = median(rec.factors)
	o.notes = append(o.notes, fmt.Sprintf("write batches: %d, acknowledged in a median of %.3f ms and at the 95th percentile %.3f ms, as measured (not gated)",
		len(rec.raw.batchMs), median(rec.raw.batchMs), quantile(rec.raw.batchMs, 0.95)))
	o.attempted, o.failed, o.firstWrong = rec.attempted, rec.failed, rec.firstWrong
}
