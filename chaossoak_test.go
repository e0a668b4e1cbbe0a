package dynq

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dynq/internal/fault"
)

const (
	// chaosBatch is the number of motion updates per batch, and
	// chaosAsyncBatches the number of DurabilityAsync batches appended
	// before each crash; the acknowledged phase, the buffer and the
	// rotation cap are the WAL soak's.
	chaosBatch        = 24
	chaosAsyncBatches = 3
	// chaosMaxWALBytes is the auto-checkpoint policy's live-byte threshold,
	// low enough that a normal cycle's appends cross it. The soak never
	// calls Sync between fault episodes; the maintenance loop alone must
	// keep the log under this bound.
	chaosMaxWALBytes = 4 << 10
	// chaosProbeBudget is the maximum number of maintenance ticks a
	// degraded episode may take to heal once the fault clears; exceeding it
	// fails the soak.
	chaosProbeBudget = 40
	// chaosScrubEvery runs a full background-scrub pass every n-th cycle.
	// Committed pages are never corrupted by this soak, so any scrub
	// finding is a false positive and fails it.
	chaosScrubEvery = 2
)

// chaosClock is the injected time source: maintenance backoff advances
// only when the soak says so.
type chaosClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *chaosClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *chaosClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// chaosWALFault injects disk-full failures into the log's physical
// writes: sticky (a full volume, until cleared) or a one-shot burst (a
// transient spike that frees up on its own).
type chaosWALFault struct {
	sticky atomic.Bool
	burst  atomic.Int64
}

func (f *chaosWALFault) fault(string) error {
	if f.sticky.Load() {
		return fault.ErrNoSpace
	}
	for {
		n := f.burst.Load()
		if n <= 0 {
			return nil
		}
		if f.burst.CompareAndSwap(n, n-1) {
			return fault.ErrNoSpace
		}
	}
}

// chaosSoak is the log soak of one unit (its fault hooks are per store)
// with disk-full episodes on both the page store and the log, against a
// database whose self-healing maintenance loop — auto-checkpoint,
// degraded-mode recovery probe, background scrub — is ticked by hand
// under an injected clock, so every run is deterministic. In each
// cycle's quiescent step the maintenance tick must bound the log by
// policy; then, on a rotating schedule, a volume fills (the log's or the
// page store's, sticky or transient), the database goes read-only, the
// fault clears, and the maintenance probe must heal it within the probe
// budget and prove the heal with a durable write. Scrub passes over the
// committed tree must stay clean throughout. An episode that never heals
// fails the run.
func chaosSoak(dir string, seed int64, cycles int) *crashSoak {
	path := filepath.Join(dir, "chaossoak.dynq")
	s := &crashSoak{
		seed: seed, cycles: cycles, batch: chaosBatch, units: 1, lay: singleLayout(path),
		logged: true, bufferPages: walSoakBufferPages, maxSegments: walSoakMaxSegments,
		line: chaosLine,
	}
	mopts := maintPolicy{
		checkpointBytes:  chaosMaxWALBytes,
		scrubPagesPerSec: 200_000, // one tick covers the whole working set
		probeBackoff:     10 * time.Millisecond,
	}
	clk := &chaosClock{t: time.Unix(1_700_000_000, 0)}
	hook := &chaosWALFault{}
	// faults is the page-path interposer of the cycle's open.
	var faults *fault.Store
	s.open = func(int) (*engine, error) {
		db, f, err := openFaulted(path, recoverSpec{
			forceWAL: true, bufferPages: walSoakBufferPages,
			maint: mopts, walFault: hook.fault, clock: clk.Now,
		}, nil)
		if err != nil {
			return nil, err
		}
		faults = f
		return db.engine, nil
	}
	s.recovered = s.replayed
	s.adversary = s.tearLogs
	s.write = func(cycle int, db *engine) ([]int64, error) {
		return s.logWrite(db, chaosAsyncBatches, func() error {
			return s.chaosEpisode(cycle, db, clk, hook, faults)
		})
	}
	return s
}

func chaosLine(c soakCounts) string {
	return fmt.Sprintf(
		"%d cycles: %d acked + %d async batches (%d survived), %d tears (%d torn tails) | %d auto-checkpoints (%d failed, %d bound violations) | %d disk-full episodes + %d transients (%d writes refused, %d untyped), %d degradations healed by %d probes (%d heals, worst %d probes) | %d scrub passes (%d pages, %d corruptions) | replayed %d records (%d updates), %d rotations | %d lost acked, %d wrong answers (%d queries)",
		c.cycles, c.batchesAcked, c.batchesAsync, c.asyncSurvived,
		c.tears, c.tornTails,
		c.autoCheckpoints, c.checkpointFailures, c.walBoundViolations,
		c.diskFullEpisodes, c.transientFaults, c.diskFullWrites, c.untypedWriteErrors,
		c.degradations, c.probes, c.heals, c.maxProbesToHeal,
		c.scrubPasses, c.scrubPages, c.scrubCorruptions,
		c.recordsReplayed, c.updatesReplayed, c.rotations,
		c.lostAcked, c.wrongAnswers, c.queriesCompared)
}

// chaosEpisode is the chaos soak's quiescent step: a maintenance tick
// that must bound the log, the cycle's fault episode and heal, a scrub
// pass every chaosScrubEvery cycles, then this open's maintenance
// counters folded into the report.
func (s *crashSoak) chaosEpisode(cycle int, db *engine, clk *chaosClock, hook *chaosWALFault, faults *fault.Store) error {
	ctx := context.Background()
	// commitBatch applies one batch durably and mirrors it into the
	// replica — the write the soak's durability invariant covers.
	commitBatch := func(batch []soakSeg) error {
		if err := db.ApplyUpdates(ctx, toUpdates(batch), WriteOptions{Durability: DurabilitySync}); err != nil {
			return err
		}
		return s.mirror(batch)
	}
	// healLoop ticks the maintenance loop (faults already cleared) until
	// the recovery probe brings the database back read-write, then proves
	// the heal with a durable write.
	healLoop := func() error {
		start := db.maint.probeCount.Load()
		for t := 0; db.Degraded() && t < chaosProbeBudget; t++ {
			clk.Advance(500 * time.Millisecond) // past the max probe backoff
			db.maint.tick()
		}
		if db.Degraded() {
			db.maint.mu.Lock()
			last := db.maint.lastProbeErr
			db.maint.mu.Unlock()
			return fmt.Errorf("database did not heal within %d probe ticks (last probe error %q)",
				chaosProbeBudget, last)
		}
		if probes := int(db.maint.probeCount.Load() - start); probes > s.c.maxProbesToHeal {
			s.c.maxProbesToHeal = probes
		}
		if err := commitBatch(s.nextBatch(chaosBatch)); err != nil {
			return fmt.Errorf("post-heal durable write: %w", err)
		}
		return nil
	}
	// noteFaultErr checks a fault-episode write failure for its typed
	// sentinel.
	noteFaultErr := func(err error) {
		s.c.diskFullWrites++
		if !errors.Is(err, ErrDiskFull) && !errors.Is(err, ErrReadOnly) {
			s.c.untypedWriteErrors++
		}
	}

	// The soak never calls Sync itself: one maintenance tick must keep the
	// log under the checkpoint policy's byte cap.
	clk.Advance(maintInterval)
	db.maint.tick()
	if db.logs[0].LiveBytes() >= chaosMaxWALBytes {
		s.c.walBoundViolations++
	}

	// Fault episode, on a rotating schedule.
	switch cycle % 5 {
	case 1: // sticky disk-full on the log volume
		hook.sticky.Store(true)
		degraded := false
		for i := 0; i < 8 && !degraded; i++ {
			err := db.ApplyUpdates(ctx, toUpdates(s.nextBatch(chaosBatch)), WriteOptions{Durability: DurabilitySync})
			if err == nil {
				hook.sticky.Store(false)
				return errors.New("durable write succeeded with the log volume full")
			}
			noteFaultErr(err)
			degraded = db.Degraded()
		}
		if !degraded {
			hook.sticky.Store(false)
			return errors.New("database did not degrade under a full log volume")
		}
		s.c.diskFullEpisodes++
		s.c.degradations++
		// The gate must refuse further writes with the typed sentinel.
		if err := db.ApplyUpdates(ctx, toUpdates(s.nextBatch(1)), WriteOptions{}); !errors.Is(err, ErrReadOnly) {
			s.c.untypedWriteErrors++
		}
		hook.sticky.Store(false) // space returns
		if err := healLoop(); err != nil {
			return err
		}

	case 2: // transient disk-full spike on the log volume
		hook.burst.Store(1)
		b := s.nextBatch(chaosBatch)
		err := db.ApplyUpdates(ctx, toUpdates(b), WriteOptions{Durability: DurabilitySync})
		if err == nil {
			return errors.New("transient log fault did not fire")
		}
		noteFaultErr(err)
		s.c.transientFaults++
		if db.Degraded() {
			return errors.New("one transient failure tripped read-only (threshold is 3)")
		}
		// Space came back on its own; the same batch must now commit.
		if err := commitBatch(b); err != nil {
			return fmt.Errorf("retry after transient fault: %w", err)
		}

	case 3: // sticky disk-full on the page-store volume
		faults.ArmNoSpace(1, true)
		err := db.Sync()
		if err == nil {
			faults.DisarmNoSpace()
			return errors.New("checkpoint succeeded with the page volume full")
		}
		noteFaultErr(err)
		if !db.Degraded() {
			faults.DisarmNoSpace()
			return errors.New("failed checkpoint with WAL armed did not degrade")
		}
		s.c.diskFullEpisodes++
		s.c.degradations++
		faults.DisarmNoSpace() // space returns
		if err := healLoop(); err != nil {
			return err
		}

	case 4: // transient disk-full spike on the page-store volume
		faults.ArmNoSpace(1, false)
		err := db.Sync()
		if err == nil {
			return errors.New("transient page fault did not fire")
		}
		noteFaultErr(err)
		s.c.transientFaults++
		// A failed checkpoint with a WAL armed degrades immediately (the
		// log cannot be allowed to grow behind silent retries); the probe
		// must bring it back.
		if !db.Degraded() {
			return errors.New("failed checkpoint with WAL armed did not degrade")
		}
		s.c.degradations++
		if err := healLoop(); err != nil {
			return err
		}
	}

	// Scrub phase: a full pass over the committed tree, with every fault
	// disarmed, must find nothing.
	if cycle%chaosScrubEvery == 0 {
		passes := db.maint.scrubPassCount.Load()
		for t := 0; t < 50 && db.maint.scrubPassCount.Load() == passes; t++ {
			clk.Advance(maintInterval)
			db.maint.tick()
		}
		if db.maint.scrubPassCount.Load() == passes {
			return errors.New("scrub pass did not complete")
		}
		if c := db.maint.scrubCorruptCount.Load(); c > 0 {
			s.c.scrubCorruptions += int(c)
			return fmt.Errorf("scrub reported %d corruptions on clean data", c)
		}
	}

	// Fold this open's maintenance counters into the report.
	s.c.autoCheckpoints += int(db.maint.autoCheckpoints.Load())
	s.c.checkpointFailures += int(db.maint.checkpointFailures.Load())
	s.c.probes += int(db.maint.probeCount.Load())
	s.c.heals += int(db.maint.heals.Load())
	s.c.scrubPasses += int(db.maint.scrubPassCount.Load())
	s.c.scrubPages += int(db.maint.scrubPageCount.Load())
	return nil
}
