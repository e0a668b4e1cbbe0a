package main

import (
	"math"
	"math/rand"
	"os"
	"testing"
	"time"

	"dynq"
	"dynq/internal/stats"
)

func smokeConfig(t *testing.T, seed int64) config {
	return config{seed: seed, seconds: 1, smoke: true, setups: 1, rounds: 1, scratch: t.TempDir()}
}

func smokeSerial(t *testing.T, workload string, seed int64) *outcome {
	t.Helper()
	cfg := smokeConfig(t, seed)
	out, err := runSerial(serialSpecs(cfg)[workload], cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != 0 {
		t.Fatalf("%s: %d operations failed: %s", workload, out.failed, out.firstWrong)
	}
	return out
}

// The counts a serial workload reports are functions of the seed alone.
var exactMetrics = []string{"reads_per_frame", "dist_comps_per_frame", "write_amp", "stored_bytes_per_segment"}

func TestSerialRunsRepeatExactly(t *testing.T) {
	for _, workload := range []string{"fly-mem", "ingest-wal"} {
		workload := workload
		t.Run(workload, func(t *testing.T) {
			t.Parallel()
			a, b := smokeSerial(t, workload, 7), smokeSerial(t, workload, 7)
			if a.scriptHash != b.scriptHash {
				t.Errorf("same seed, different scripts: %x and %x", a.scriptHash, b.scriptHash)
			}
			for _, name := range exactMetrics {
				if a.metrics[name] != b.metrics[name] || a.metrics[name] == 0 {
					t.Errorf("%s: %v and %v, want equal and non-zero", name, a.metrics[name], b.metrics[name])
				}
			}
			if c := smokeSerial(t, workload, 8); c.scriptHash == a.scriptHash {
				t.Errorf("seeds 7 and 8 generated the same script")
			}
		})
	}
}

// fly-mem and fly-disk run one script on one tree shape, so the paper's
// two counts must agree to the last unit.
func TestFlyMemAndFlyDiskAgreeOnPaperCounts(t *testing.T) {
	mem, disk := smokeSerial(t, "fly-mem", 3), smokeSerial(t, "fly-disk", 3)
	if mem.scriptHash != disk.scriptHash {
		t.Fatalf("scripts differ: %x and %x", mem.scriptHash, disk.scriptHash)
	}
	for _, name := range exactMetrics[:2] {
		if mem.metrics[name] != disk.metrics[name] {
			t.Errorf("%s: fly-mem %v, fly-disk %v", name, mem.metrics[name], disk.metrics[name])
		}
	}
	if mem.metrics["write_amp"] <= disk.metrics["write_amp"] {
		t.Errorf("a 64-page buffer should absorb writes: write_amp fly-mem %v, fly-disk %v",
			mem.metrics["write_amp"], disk.metrics["write_amp"])
	}
}

func TestLiveWireSmoke(t *testing.T) {
	out, err := runLive(smokeConfig(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != 0 {
		t.Fatalf("%d operations failed: %s", out.failed, out.firstWrong)
	}
	for _, m := range endToEnd {
		if v := out.metrics[m.name]; v <= 0 || math.IsNaN(v) {
			t.Errorf("%s = %v, want a positive number", m.name, v)
		}
	}
}

// The names, units and directions the program reports are the ones
// BENCHMARK.json declares.
func TestMetricNamesMatchBenchmarkFile(t *testing.T) {
	bf, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	same := func(kind string, declared []benchMetric, emitted []metricSpec) {
		if len(declared) != len(emitted) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program reports %d", kind, len(declared), len(emitted))
			return
		}
		for i, d := range declared {
			e := emitted[i]
			better := "lower"
			if e.higher {
				better = "higher"
			}
			if d.Name != e.name || d.Unit != e.unit || d.Better != better {
				t.Errorf("%s[%d]: declared %s/%s/%s, reported %s/%s/%s", kind, i, d.Name, d.Unit, d.Better, e.name, e.unit, better)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
	if len(bf.Workloads) != len(workloadWhy) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(bf.Workloads), len(workloadWhy))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadWhy[i].name || w.Why != workloadWhy[i].why {
			t.Errorf("workload %d: declared %q, program %q", i, w.Name, workloadWhy[i].name)
		}
	}
	// ISSUE 12's caps: a tenth for timings, 3 % for counts that are exact
	// for a seed and steady across seeds. The paper's two counts move by
	// up to 2.6 % with the seed (README, "Seeds and bounds") and carry the
	// issue formula's floor of 5 %; set-up, whose spread is not gated,
	// carries the largest bound, and the live heap as much.
	for _, m := range bf.EndToEnd {
		limit := 0.10
		switch m.Name {
		case "setup_s", "live_heap_mb":
			limit = 0.15
		case "reads_per_frame", "dist_comps_per_frame":
			limit = 0.05
		case "write_amp", "stored_bytes_per_segment":
			limit = 0.03
		}
		if m.Bound <= 0 || m.Bound > limit {
			t.Errorf("%s: bound %v outside (0, %v]", m.Name, m.Bound, limit)
		}
	}
}

func TestPacerFactorIsMedianOfLatestSlices(t *testing.T) {
	var none *pacer
	if none.factor() != 1 || none.factorSince(none.mark()) != 1 {
		t.Errorf("no pacer must mean factor 1")
	}
	p := &pacer{}
	for i := 0; i < 3*paceWindow; i++ {
		p.slices = append(p.slices, referenceSlice) // an undisturbed stretch
	}
	mark := p.mark()
	for i := 0; i < paceWindow; i++ {
		p.slices = append(p.slices, 1.2*referenceSlice) // a 20 % slower one
	}
	p.slices[len(p.slices)-2] = 50 * referenceSlice // one slice caught a collection
	if got := p.factor(); math.Abs(got-1.2) > 1e-9 {
		t.Errorf("factor = %v, want 1.2: the latest window only, and its median", got)
	}
	if got := p.factorSince(mark); math.Abs(got-1.2) > 1e-9 {
		t.Errorf("factorSince = %v, want 1.2", got)
	}
}

// A flight's timings land on both clocks, a factor apart, and a frame
// that overran the budget counts as late but stays out of frames_per_s.
func TestRecorderKeepsBothClocksAndLeavesStallsOutOfTheFrameRate(t *testing.T) {
	tk, err := newTick(0, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	f := &flight{}
	for s := range f.lat {
		f.ans[s] = make([][]dynq.Result, framesPerQuery)
		f.lat[s] = make([]time.Duration, framesPerQuery)
		f.start[s] = make([]time.Time, framesPerQuery)
		for i := range f.lat[s] {
			f.lat[s][i] = time.Millisecond
		}
	}
	f.lat[naive][7] = 3 * frameBudget // stalled
	rec := newRecorder(nil, false)
	rec.beginRound()
	rec.flight(newModel(nil), tk, f, stats.Snapshot{}, 0, 2)
	if rec.failed != 0 {
		t.Fatalf("empty answers over an empty model flagged: %s", rec.firstWrong)
	}
	const frames = strategies * framesPerQuery
	if rec.frames != frames || rec.onTime != frames-1 || rec.cur().frames != frames-1 {
		t.Errorf("frames %d, on time %d, in the rate %d; want %d, %d, %d", rec.frames, rec.onTime, rec.cur().frames, frames, frames-1, frames-1)
	}
	if raw, ref := rec.raw.busy[0].read, rec.ref.busy[0].read; raw != (frames-1)*time.Millisecond || ref != raw/2 {
		t.Errorf("busy %v as measured, %v on the reference clock; want %v and half of it", raw, ref, (frames-1)*time.Millisecond)
	}
	if raw, ref := median(rec.raw.frameMs[pdq]), median(rec.ref.frameMs[pdq]); raw != 1 || ref != 0.5 {
		t.Errorf("median frame %v ms as measured, %v ms on the reference clock; want 1 and 0.5", raw, ref)
	}
}

func TestQuantiles(t *testing.T) {
	vs := []float64{9, 1, 5, 3, 7}
	if got := median(vs); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if vs[0] != 9 {
		t.Errorf("median reordered its input")
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
}

// One disturbed round does not move a throughput: it is the median round.
func TestRoundMedianIgnoresOneSlowRound(t *testing.T) {
	rec := newRecorder(nil, false)
	for i, busy := range []time.Duration{time.Second, time.Second, 5 * time.Second, time.Second, time.Second} {
		rec.beginRound()
		rec.cur().frames, rec.raw.busy[i].read = 1000, busy
	}
	fps, _ := rec.raw.rates(rec.rounds)
	if got := median(fps); got != 1000 {
		t.Errorf("median round = %v frames/s, want 1000", got)
	}
}

func TestSelfTimeIsDurationMinusChildren(t *testing.T) {
	tr := newTracer()
	at := tr.origin
	root := tr.span("netq.client_snapshot", 1, -1, at, 100*time.Microsecond, nil)
	db := tr.span("dynq.db_snapshot", 1, root, at, 60*time.Microsecond, nil)
	tr.span("rtree.range_search", 1, db, at, 45*time.Microsecond, nil)
	self := selfTimes(tr.spans)
	for name, want := range map[string]time.Duration{
		"netq.client_snapshot": 40 * time.Microsecond,
		"dynq.db_snapshot":     15 * time.Microsecond,
		"rtree.range_search":   45 * time.Microsecond,
	} {
		if self[name] != want {
			t.Errorf("self time of %s = %v, want %v", name, self[name], want)
		}
	}
}

// In an open loop a stall is charged to the batches it delays: they are
// timed from when they were due, not from when they could be sent.
func TestOpenLoopChargesAStallToLaterBatches(t *testing.T) {
	const interval, stall = 10 * time.Millisecond, 55 * time.Millisecond
	calls := 0
	backend := func([]dynq.MotionUpdate) error {
		if calls++; calls == 1 {
			time.Sleep(stall)
		}
		return nil
	}
	fr, err := offer(backend, make([][]dynq.MotionUpdate, 8), time.Now(), interval)
	if err != nil {
		t.Fatal(err)
	}
	// Batches 1..4 were due at 10..40 ms, inside the stall.
	for k := 1; k <= 4; k++ {
		if want := stall - time.Duration(k)*interval; fr.lat[k] < want {
			t.Errorf("batch %d: latency %v, want at least %v (time since it was due)", k, fr.lat[k], want)
		}
		if fr.late[k] <= 0 {
			t.Errorf("batch %d: generator lateness %v ms, want positive", k, fr.late[k])
		}
	}
	if last := fr.lat[7]; last > 5*time.Millisecond {
		t.Errorf("batch 7, due after the backlog drained, took %v", last)
	}
}

// The verifier must notice each kind of wrong answer it claims to check.
func TestVerifierCatchesWrongAnswers(t *testing.T) {
	cfg := smokeConfig(t, 4)
	spec := serialSpecs(cfg)["fly-mem"]
	e, _, err := setUp(spec, cfg.seed, cfg.scratch, 1, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	var tk *tick
	var f *flight
	// A tick whose window moves and is never empty gives every check
	// something to hold on to.
	for {
		if tk, err = newTick(e.ticks, e.rng); err != nil {
			t.Fatal(err)
		}
		e.ticks++
		if tk.overlap != 0.5 || tk.side != 20 {
			continue
		}
		if f, err = fly(e.view, tk); err != nil {
			t.Fatal(err)
		}
		break
	}
	clean := func() answers {
		var cp answers
		for s := range f.ans {
			cp[s] = make([][]dynq.Result, len(f.ans[s]))
			for i := range f.ans[s] {
				cp[s][i] = append([]dynq.Result(nil), f.ans[s][i]...)
			}
		}
		return cp
	}
	count := func(a answers, brute int) (n [strategies]int) {
		for s, frames := range checkTick(e.m, tk, &a, brute) {
			for _, why := range frames {
				if why != "" {
					n[s]++
				}
			}
		}
		return n
	}
	if n := count(clean(), 10); n != [strategies]int{} {
		t.Fatalf("untampered answers flagged: %v", n)
	}
	firstNonEmpty := func(frames [][]dynq.Result, from int) int {
		for i := from; i < len(frames); i++ {
			if len(frames[i]) > 0 {
				return i
			}
		}
		t.Fatal("no non-empty frame to tamper with")
		return -1
	}

	a := clean()
	i := firstNonEmpty(a[naive], 0)
	a[naive][i] = a[naive][i][1:]
	if n := count(a, i); n[naive] == 0 {
		t.Errorf("a segment missing from a snapshot was not noticed against the model")
	}

	a = clean()
	i = firstNonEmpty(a[npdq], 1)
	a[npdq][i] = a[npdq][i][1:]
	if n := count(a, -1); n[npdq] == 0 {
		t.Errorf("a segment missing from a non-predictive delta was not noticed")
	}

	a = clean()
	i = firstNonEmpty(a[pdq], 1)
	a[pdq][i+1] = append(a[pdq][i+1], a[pdq][i][0])
	if n := count(a, -1); n[pdq] == 0 {
		t.Errorf("an episode delivered twice was not noticed")
	}

	a = clean()
	a[pdq][0] = nil // the objects visible when the session starts never arrive
	if n := count(a, -1); n[pdq] == 0 {
		t.Errorf("objects missing from the predictive stream were not noticed")
	}
}

func chdir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(old); err != nil {
			t.Error(err)
		}
	})
}

// A traced run reports every layer metric and nothing else, and every
// layer timing is measured on every workload — on the workload's own path,
// or by a probe over its segments where the layer is not on it — so none
// may read exactly 0.
func TestTracedRunsReportTheWholeLedger(t *testing.T) {
	chdir(t, t.TempDir()) // the span files go under the working directory
	for _, w := range workloadWhy {
		cfg := smokeConfig(t, 6)
		cfg.trace = true
		out, err := run(w.name, cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if out.failed != 0 {
			t.Errorf("%s: %d operations failed: %s", w.name, out.failed, out.firstWrong)
		}
		if len(out.layers) != len(perLayer) {
			t.Errorf("%s: %d layer metrics reported, %d declared", w.name, len(out.layers), len(perLayer))
		}
		for _, m := range perLayer {
			switch m.unit {
			case "s", "ms", "us", "ns":
				if out.layers[m.name] == 0 {
					t.Errorf("%s: %s reads 0", w.name, m.name)
				}
			}
		}
		if got := out.layers["dynq.recovered_share"]; got != 1 {
			t.Errorf("%s: recovered_share = %v, want everything written to come back", w.name, got)
		}
	}
}
