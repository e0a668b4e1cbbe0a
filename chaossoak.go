package dynq

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dynq/internal/pager"
)

// ChaosSoakOptions configure ChaosSoak, the combined adversary behind
// dqbench -faults -wal -chaos: crash/reopen cycles with torn log tails
// (WALSoak's adversary) interleaved with disk-full episodes on both the
// page store and the log, driven against a database whose self-healing
// maintenance loop — auto-checkpoint, degraded-mode recovery probe,
// background scrub — is ticked manually under an injected clock so every
// run is deterministic.
type ChaosSoakOptions struct {
	// Cycles is the number of crash/reopen iterations (default 60).
	Cycles int
	// Seed drives the workload, the fault schedule, and the query mix;
	// the same seed replays the same soak (default 1).
	Seed int64
	// Dir is the working directory (default: a fresh temp dir).
	Dir string
	// Log, when set, receives one progress line per 10 cycles.
	Log func(format string, args ...any)
}

const (
	// chaosBatch is the number of motion updates per batch, and
	// chaosAsyncBatches the number of DurabilityAsync batches appended
	// before each crash; the acknowledged phase, the buffer and the
	// rotation cap are WALSoak's.
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

// ChaosSoakReport summarizes a ChaosSoak run: WALSoak's crash-cycle
// counters (Cycles, BatchesAcked, BatchesAsync, AsyncSurvived, Tears,
// TornTails, RecordsReplayed, UpdatesReplayed, Rotations, LostAcked,
// WrongAnswers, QueriesCompared) plus the self-healing ones. The
// invariants are LostAcked == 0 and WrongAnswers == 0 (WALSoak's
// durability and correctness contracts), plus: every degraded episode
// heals within the probe budget (the run errors out otherwise),
// WALBoundViolations == 0 (the maintenance loop alone bounds the log),
// UntypedWriteErrors == 0 (disk-full and read-only failures carry their
// typed sentinels), and ScrubCorruptions == 0 (no false positives on
// clean data).
type ChaosSoakReport struct {
	walCycleCounts
	AutoCheckpoints    int // policy-driven checkpoints by the maintenance loop
	CheckpointFailures int // policy-driven checkpoints that failed (fault episodes)
	WALBoundViolations int // post-tick live log bytes at/over the policy cap (MUST be 0)
	DiskFullEpisodes   int // sticky full-volume episodes (log or page store)
	TransientFaults    int // one-shot disk-full spikes
	DiskFullWrites     int // writes refused while a volume was full
	UntypedWriteErrors int // fault-path errors missing their typed sentinel (MUST be 0)
	Degradations       int // read-only trips across all episodes
	Probes             int // recovery probes issued by the maintenance loop
	Heals              int // degraded episodes cleared by a successful probe
	MaxProbesToHeal    int // worst probes-per-episode observed
	ScrubPasses        int // complete scrub sweeps
	ScrubPages         int // pages verified by the scrubber
	ScrubCorruptions   int // scrub findings (MUST be 0: data is never corrupted)
}

func (r ChaosSoakReport) String() string {
	return fmt.Sprintf(
		"%d cycles: %d acked + %d async batches (%d survived), %d tears (%d torn tails) | %d auto-checkpoints (%d failed, %d bound violations) | %d disk-full episodes + %d transients (%d writes refused, %d untyped), %d degradations healed by %d probes (%d heals, worst %d probes) | %d scrub passes (%d pages, %d corruptions) | replayed %d records (%d updates), %d rotations | %d lost acked, %d wrong answers (%d queries)",
		r.Cycles, r.BatchesAcked, r.BatchesAsync, r.AsyncSurvived,
		r.Tears, r.TornTails,
		r.AutoCheckpoints, r.CheckpointFailures, r.WALBoundViolations,
		r.DiskFullEpisodes, r.TransientFaults, r.DiskFullWrites, r.UntypedWriteErrors,
		r.Degradations, r.Probes, r.Heals, r.MaxProbesToHeal,
		r.ScrubPasses, r.ScrubPages, r.ScrubCorruptions,
		r.RecordsReplayed, r.UpdatesReplayed, r.Rotations,
		r.LostAcked, r.WrongAnswers, r.QueriesCompared)
}

// chaosClock is the injected time source: maintenance backoff and
// checkpoint aging advance only when the soak says so.
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
		return pager.ErrNoSpace
	}
	for {
		n := f.burst.Load()
		if n <= 0 {
			return nil
		}
		if f.burst.CompareAndSwap(n, n-1) {
			return pager.ErrNoSpace
		}
	}
}

// openChaos reopens the committed file with full recovery, a FaultStore
// interposed on the page path, a fault-hooked WAL, and a manually ticked
// maintenance loop under the injected clock.
func openChaos(path string, bufferPages int, mopts MaintenanceOptions,
	now func() time.Time, walFault func(string) error) (*DB, *pager.FileStore, *pager.FaultStore, error) {
	return recoverFaulted(recoverSpec{
		lay:         singleLayout(path),
		units:       1,
		forceWAL:    true,
		bufferPages: bufferPages,
		maint:       mopts,
		walFault:    walFault,
		clock:       now,
	}, nil)
}

// ChaosSoak runs the combined crash + disk-full + self-healing soak.
// Each cycle reopens with recovery and verifies against a never-crashed
// replica (WALSoak's cycle), then lets the maintenance tick bound the log
// by policy, then — on a rotating schedule — fills a volume (the log's
// or the page store's, sticky or transient), drives the database into
// read-only mode, clears the fault, and requires the maintenance probe
// to heal it within the probe budget and prove the heal with a durable
// write. Scrub passes over the committed tree must stay clean
// throughout. The cycle ends in a hard crash and a torn log tail. It
// returns an error for harness failures and for self-healing contract
// violations (an episode that never heals); durability and correctness
// violations are counted in the report.
func ChaosSoak(opts ChaosSoakOptions) (ChaosSoakReport, error) {
	if opts.Cycles <= 0 {
		opts.Cycles = 60
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	dir := opts.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "dynq-chaossoak")
		if err != nil {
			return ChaosSoakReport{}, err
		}
		defer os.RemoveAll(dir)
	}
	path := filepath.Join(dir, "chaossoak.dynq")

	mopts := MaintenanceOptions{
		Checkpoint:       CheckpointPolicy{MaxBytes: chaosMaxWALBytes},
		ScrubPagesPerSec: 200_000, // one tick covers the whole working set
		ProbeBackoff:     10 * time.Millisecond,
	}
	clk := &chaosClock{t: time.Unix(1_700_000_000, 0)}
	hook := &chaosWALFault{}
	ctx := context.Background()

	var rep ChaosSoakReport
	// faults is the page-path interposer of the cycle's open; the fault
	// hooks are per store, which is why the chaos soak is one unit.
	var faults *pager.FaultStore
	s := &walCrashSoak{
		counts: &rep.walCycleCounts,
		seed:   opts.Seed, cycles: opts.Cycles, units: 1, lay: singleLayout(path),
		batch: chaosBatch, asyncBatches: chaosAsyncBatches,
		open: func() (*engine, error) {
			db, _, f, err := openChaos(path, walSoakBufferPages, mopts, clk.Now, hook.fault)
			if err != nil {
				return nil, err
			}
			faults = f
			return db.engine, nil
		},
		progress: func(cycle int) {
			if opts.Log != nil && (cycle+1)%10 == 0 {
				opts.Log("chaos soak cycle %d/%d: %s", cycle+1, opts.Cycles, rep)
			}
		},
	}
	s.quiescent = func(cycle int, db *engine) error {
		// commitBatch applies one batch durably and mirrors it into the
		// replica — the write the soak's durability invariant covers.
		commitBatch := func(batch []soakSeg) error {
			if err := db.ApplyUpdates(ctx, toUpdates(batch), WriteOptions{Durability: DurabilitySync}); err != nil {
				return err
			}
			return s.mirror(batch)
		}
		// healLoop ticks the maintenance loop (faults already cleared)
		// until the recovery probe brings the database back read-write,
		// then proves the heal with a durable write.
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
			if probes := int(db.maint.probeCount.Load() - start); probes > rep.MaxProbesToHeal {
				rep.MaxProbesToHeal = probes
			}
			if err := commitBatch(s.nextBatch(chaosBatch)); err != nil {
				return fmt.Errorf("post-heal durable write: %w", err)
			}
			return nil
		}
		// noteFaultErr checks a fault-episode write failure for its typed
		// sentinel; anything untyped is a satellite contract violation.
		noteFaultErr := func(err error) {
			rep.DiskFullWrites++
			if !errors.Is(err, ErrDiskFull) && !errors.Is(err, ErrReadOnly) {
				rep.UntypedWriteErrors++
			}
		}

		// The soak never calls Sync itself: one maintenance tick must keep
		// the log under the checkpoint policy's byte cap.
		clk.Advance(maintInterval)
		db.maint.tick()
		if db.logs[0].LiveBytes() >= chaosMaxWALBytes {
			rep.WALBoundViolations++
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
			rep.DiskFullEpisodes++
			rep.Degradations++
			// The gate must refuse further writes with the typed sentinel.
			if err := db.ApplyUpdates(ctx, toUpdates(s.nextBatch(1)), WriteOptions{}); !errors.Is(err, ErrReadOnly) {
				rep.UntypedWriteErrors++
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
			rep.TransientFaults++
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
			rep.DiskFullEpisodes++
			rep.Degradations++
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
			rep.TransientFaults++
			// A failed checkpoint with a WAL armed degrades immediately
			// (the log cannot be allowed to grow behind silent retries);
			// the probe must bring it back.
			if !db.Degraded() {
				return errors.New("failed checkpoint with WAL armed did not degrade")
			}
			rep.Degradations++
			if err := healLoop(); err != nil {
				return err
			}
		}

		// Scrub phase: a full pass over the committed tree, with every
		// fault disarmed, must find nothing.
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
				rep.ScrubCorruptions += int(c)
				return fmt.Errorf("scrub reported %d corruptions on clean data", c)
			}
		}

		// Fold this open's maintenance counters into the report.
		rep.AutoCheckpoints += int(db.maint.autoCheckpoints.Load())
		rep.CheckpointFailures += int(db.maint.checkpointFailures.Load())
		rep.Probes += int(db.maint.probeCount.Load())
		rep.Heals += int(db.maint.heals.Load())
		rep.ScrubPasses += int(db.maint.scrubPassCount.Load())
		rep.ScrubPages += int(db.maint.scrubPageCount.Load())
		return nil
	}
	err := s.run()
	return rep, err
}
