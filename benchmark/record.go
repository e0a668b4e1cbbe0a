package main

import (
	"fmt"
	"time"

	"dynq"
	"dynq/internal/stats"
)

// round is one measured repetition of identical size; throughputs are
// reported as the median over rounds so one disturbed round costs
// nothing.
type round struct {
	frames  int // answered correctly within the frame budget
	updates int
}

// clock is a run's timings on one clock: as measured, or in
// reference-sandbox time (see pacer).
type clock struct {
	frameMs [strategies][]float64
	batchMs []float64
	busy    []busyTime // per round
}

// busyTime is the time a round spent inside frame calls and inside write
// calls and scripted checkpoints.
type busyTime struct{ read, write time.Duration }

// rates returns each round's frames and updates per second of busy time.
func (c *clock) rates(rounds []round) (framesPerS, updatesPerS []float64) {
	for i, rd := range rounds {
		framesPerS = append(framesPerS, ratio(float64(rd.frames), c.busy[i].read.Seconds()))
		updatesPerS = append(updatesPerS, ratio(float64(rd.updates), c.busy[i].write.Seconds()))
	}
	return framesPerS, updatesPerS
}

// recorder accumulates everything the measured phase of a run observes.
type recorder struct {
	raw, ref clock
	syncMs   []float64 // as measured
	rounds   []round

	// pace is the yardstick run between timed calls. paceWrites is false
	// when write latencies follow a schedule, and queueing behind it,
	// rather than the CPU (live-wire's open-loop feeder): those stay on
	// the wall clock.
	pace       *pacer
	paceWrites bool
	factors    []float64 // one per tick, for the report

	attempted, failed int
	frames, onTime    int
	cost              stats.Snapshot // summed over read phases only
	userBytes         int64
	firstWrong        string

	// tr, when set, receives a span per tick, frame, batch and checkpoint.
	tr *tracer
}

func newRecorder(pace *pacer, paceWrites bool) *recorder {
	return &recorder{pace: pace, paceWrites: paceWrites}
}

func (r *recorder) beginRound() {
	r.rounds = append(r.rounds, round{})
	r.raw.busy = append(r.raw.busy, busyTime{})
	r.ref.busy = append(r.ref.busy, busyTime{})
}

func (r *recorder) cur() *round { return &r.rounds[len(r.rounds)-1] }

func (r *recorder) writeFactor() float64 {
	if r.paceWrites {
		return r.pace.factor()
	}
	return 1
}

// busyWrite charges d of the write phase to the current round.
func (r *recorder) busyWrite(d time.Duration, factor float64) {
	i := len(r.rounds) - 1
	r.raw.busy[i].write += d
	r.ref.busy[i].write += time.Duration(float64(d) / factor)
}

func (r *recorder) fail(format string, args ...any) {
	r.failed++
	if r.firstWrong == "" {
		r.firstWrong = fmt.Sprintf(format, args...)
	}
}

// check counts one end-of-run assertion as an operation.
func (r *recorder) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

// flight verifies one tick's answers against the model and records its
// frames: every frame is an operation, a wrong one is a failed operation
// and misses the frame budget whatever its latency.
//
// factor is the pacer's when the tick was flown: live-wire verifies a
// round's ticks after the round.
func (r *recorder) flight(m *model, tk *tick, f *flight, cost stats.Snapshot, bruteFrame int, factor float64) {
	wrong := checkTick(m, tk, &f.ans, bruteFrame)
	cur, busy := r.cur(), len(r.rounds)-1
	r.factors = append(r.factors, factor)
	for s := 0; s < strategies; s++ {
		for i, d := range f.lat[s] {
			r.raw.frameMs[s] = append(r.raw.frameMs[s], ms(d))
			r.ref.frameMs[s] = append(r.ref.frameMs[s], ms(d)/factor)
			r.attempted++
			switch {
			case wrong[s][i] != "":
				r.fail("%s frame %d of a tick (overlap %g, range %g, t=%g): %s",
					strategyName[s], i, tk.overlap, tk.side, tk.times[i].Lo, wrong[s][i])
			case d <= frameBudget:
				// Only frames answered on time feed frames_per_s: a frame
				// stalled behind a write batch costs its wait squared (the
				// longer the batch, the likelier and the longer the wait),
				// and frame_on_time_share already counts it.
				r.onTime++
				cur.frames++
				r.raw.busy[busy].read += d
				r.ref.busy[busy].read += time.Duration(float64(d) / factor)
			}
		}
		r.frames += len(f.lat[s])
	}
	r.cost = r.cost.Add(cost)
	if r.tr != nil {
		at := time.Now()
		r.tr.flight(f, cost)
		r.tr.spent += time.Since(at)
	}
}

// batch records one acknowledged write batch and returns its span (-1
// when not tracing).
func (r *recorder) batch(ups []dynq.MotionUpdate, start time.Time, d time.Duration) int {
	r.attempted++
	factor := r.writeFactor()
	r.raw.batchMs = append(r.raw.batchMs, ms(d))
	r.ref.batchMs = append(r.ref.batchMs, ms(d)/factor)
	r.cur().updates += len(ups)
	r.busyWrite(d, factor)
	for _, u := range ups {
		r.userBytes += int64(userBytes(u))
	}
	if r.tr == nil {
		return -1
	}
	return r.tr.span("dynq.apply_updates", r.tr.nextOp(), -1, start, d, map[string]int64{"updates": int64(len(ups))})
}

// sync records one scripted checkpoint.
func (r *recorder) sync(start time.Time, d time.Duration) {
	r.attempted++
	r.syncMs = append(r.syncMs, ms(d))
	if r.tr != nil {
		r.tr.span("dynq.sync", r.tr.nextOp(), -1, start, d, nil)
	}
}
