package dynq

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"dynq/internal/fault"
	"dynq/internal/obs"
	"dynq/internal/pager"
)

// openMaintTest opens a WAL-armed file database with a fault-injecting
// store and a manual maintenance loop driven by the returned clock.
func openMaintTest(t *testing.T, mopts maintPolicy) (*DB, *pager.FileStore, *fault.Store, *chaosClock) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "db.dynq")
	clk := &chaosClock{t: time.Unix(1_700_000_000, 0)}
	if err := createFiles(singleLayout(path), 1, true, 0, nil); err != nil {
		t.Fatalf("create: %v", err)
	}
	db, faults, err := openFaulted(path, recoverSpec{
		forceWAL: true, maint: mopts, clock: clk.Now,
	}, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	if db.maint == nil {
		t.Fatal("maintenance loop did not start")
	}
	return db, faults.Inner.(*pager.FileStore), faults, clk
}

// TestAutoCheckpointBoundsWAL is the headline acceptance check for the
// shipped checkpoint bound: sustained ingest with NO caller Sync must
// keep the write-ahead log's live bytes under maintCheckpointBytes,
// because the maintenance tick checkpoints the log once it reaches them.
// The writer corrects the segments of a fixed fleet, as moving objects
// report, so the log grows while the tree does not.
func TestAutoCheckpointBoundsWAL(t *testing.T) {
	db, _, _, _ := openMaintTest(t, maintFor(true))
	r := rand.New(rand.NewSource(7))
	var next ObjectID = 1
	ctx := context.Background()
	fleet := toUpdates(genSoakBatch(r, 1000, &next))
	if err := db.ApplyUpdates(ctx, fleet, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; db.maint.autoCheckpoints.Load() == 0; i++ {
		ups := make([]MotionUpdate, 0, 2*len(fleet))
		for j, u := range fleet {
			to := []float64{u.Segment.From[0] + float64(i%2), u.Segment.From[1]}
			fleet[j].Segment.To = to
			ups = append(ups, MotionUpdate{ID: u.ID, Segment: Segment{T0: u.Segment.T0}, Delete: true}, fleet[j])
		}
		if err := db.ApplyUpdates(ctx, ups, WriteOptions{}); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		db.maint.tick()
		// Right after a tick the log is either under the bound or was
		// just truncated by the maintenance checkpoint; either way bounded.
		if lb := db.logs[0].LiveBytes(); lb >= maintCheckpointBytes {
			t.Fatalf("batch %d: %d live bytes after a maintenance tick, bound %d", i, lb, maintCheckpointBytes)
		}
		if i == 1000 {
			t.Fatal("1000 batches took no auto-checkpoint")
		}
	}
	if n := db.maint.checkpointFailures.Load(); n != 0 {
		t.Fatalf("%d auto-checkpoints failed on a healthy store", n)
	}
}

// TestProbeHealsDiskFull drives the full degraded-mode round trip: a
// sticky ENOSPC on the page store degrades the database with a typed
// error, probes fail (with backoff) while the device is full, and the
// first probe after space returns heals it — no operator involved.
func TestProbeHealsDiskFull(t *testing.T) {
	db, _, faults, clk := openMaintTest(t, maintPolicy{
		probeBackoff: 10 * time.Millisecond,
	})
	r := rand.New(rand.NewSource(3))
	var next ObjectID = 1
	ctx := context.Background()
	base := toUpdates(genSoakBatch(r, 32, &next))
	if err := db.ApplyUpdates(ctx, base, WriteOptions{Durability: DurabilitySync}); err != nil {
		t.Fatal(err)
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}

	faults.ArmNoSpace(1, true)
	err := db.Sync()
	if err == nil {
		t.Fatal("Sync on a full device succeeded")
	}
	if !errors.Is(err, ErrDiskFull) {
		t.Fatalf("Sync on a full device returned %v, want errors.Is(err, ErrDiskFull)", err)
	}
	if !db.Degraded() {
		t.Fatal("failed WAL-armed Sync did not degrade the database")
	}
	ups := toUpdates(genSoakBatch(r, 4, &next))
	if err := db.ApplyUpdates(ctx, ups, WriteOptions{}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("write while degraded returned %v, want errors.Is(err, ErrReadOnly)", err)
	}

	// The device is still full: probes must fail and back off, not heal.
	db.maint.tick()
	if db.maint.probeCount.Load() == 0 {
		t.Fatal("no probe attempted on the first degraded tick")
	}
	if db.maint.probeFailures.Load() == 0 {
		t.Fatal("probe succeeded while the device was still full")
	}
	if !db.Degraded() {
		t.Fatal("database healed while the device was still full")
	}

	faults.DisarmNoSpace()
	for i := 0; i < 50 && db.Degraded(); i++ {
		clk.Advance(500 * time.Millisecond) // past the capped backoff
		db.maint.tick()
	}
	if db.Degraded() {
		t.Fatalf("database did not heal after space returned (%d probes, %d failures)",
			db.maint.probeCount.Load(), db.maint.probeFailures.Load())
	}
	if db.maint.heals.Load() != 1 {
		t.Fatalf("heals = %d, want 1", db.maint.heals.Load())
	}
	found := false
	for _, ev := range obs.DefaultJournal().Recent(32) {
		if ev.Type == obs.EventDegradedExit {
			found = true
			break
		}
	}
	if !found {
		t.Error("no degraded_exit event journaled for the healed episode")
	}
	// The heal must be real: a normal durable write goes through.
	ups = toUpdates(genSoakBatch(r, 4, &next))
	if err := db.ApplyUpdates(ctx, ups, WriteOptions{Durability: DurabilitySync}); err != nil {
		t.Fatalf("durable write after heal: %v", err)
	}
}

// TestScrubDetectsCorruptionAndHoldsDegraded: a bit flip on a committed
// page must be caught by the background scrubber (not the next crash),
// trip read-only mode, and pause probing until a clean pass — then the
// probe path heals the database once the page verifies again.
func TestScrubDetectsCorruptionAndHoldsDegraded(t *testing.T) {
	db, fs, _, clk := openMaintTest(t, maintPolicy{
		scrubPagesPerSec: 1_000_000, // whole tree per tick
		probeBackoff:     10 * time.Millisecond,
	})
	r := rand.New(rand.NewSource(5))
	var next ObjectID = 1
	ctx := context.Background()
	ups := toUpdates(genSoakBatch(r, 200, &next))
	if err := db.ApplyUpdates(ctx, ups, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	db.maint.tick() // one clean pass first
	if n := db.maint.scrubPassCount.Load(); n == 0 {
		t.Fatal("scrubber completed no pass over a small committed tree")
	}
	if n := db.maint.scrubCorruptCount.Load(); n != 0 {
		t.Fatalf("clean tree scrubbed with %d corruptions", n)
	}

	meta, _, err := decodeMeta(fs.Aux())
	if err != nil {
		t.Fatal(err)
	}
	const bit = 40_003 // payload bit; any flip breaks the page checksum
	if err := fs.FlipBit(meta.Root, bit); err != nil {
		t.Fatal(err)
	}
	db.maint.tick()
	if db.maint.scrubCorruptCount.Load() == 0 {
		t.Fatal("scrub missed a flipped bit on the committed root")
	}
	if !db.Degraded() {
		t.Fatal("scrub corruption did not trip degraded mode")
	}
	// Corruption holds the flag: ticks scrub, they must not probe.
	probes := db.maint.probeCount.Load()
	clk.Advance(time.Second)
	db.maint.tick()
	if got := db.maint.probeCount.Load(); got != probes {
		t.Fatalf("probing ran under the corruption hold (%d -> %d probes)", probes, got)
	}
	if db.maint.heals.Load() != 0 {
		t.Fatal("database healed while the committed root was corrupt")
	}

	// Flip the bit back: the next clean pass lifts the hold, then the
	// probe path takes over and heals with a durable write.
	if err := fs.FlipBit(meta.Root, bit); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50 && db.Degraded(); i++ {
		clk.Advance(500 * time.Millisecond)
		db.maint.tick()
	}
	if db.Degraded() {
		t.Fatal("database did not heal after the corruption was repaired")
	}
	if db.maint.heals.Load() != 1 {
		t.Fatalf("heals = %d, want 1", db.maint.heals.Load())
	}
}

// TestFailedCheckpointKeepsWALRecords is the regression for the
// checkpoint/durability contract: a checkpoint that fails must not
// advance the log's checkpoint LSN, so every acked record is still
// replayed by the next recovery.
func TestFailedCheckpointKeepsWALRecords(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.dynq")
	// A page buffer keeps uncommitted tree writes off the committed
	// file, so the post-crash state is exactly "failed checkpoint":
	// old committed tree + intact log.
	const bufPages = 256
	clk := &chaosClock{t: time.Unix(1_700_000_000, 0)}
	if err := createFiles(singleLayout(path), 1, true, bufPages, nil); err != nil {
		t.Fatal(err)
	}
	db, faults, err := openFaulted(path, recoverSpec{
		forceWAL: true, bufferPages: bufPages, clock: clk.Now,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(9))
	var next ObjectID = 1
	ctx := context.Background()
	a := toUpdates(genSoakBatch(r, 50, &next))
	if err := db.ApplyUpdates(ctx, a, WriteOptions{Durability: DurabilitySync}); err != nil {
		t.Fatal(err)
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	b := toUpdates(genSoakBatch(r, 50, &next))
	if err := db.ApplyUpdates(ctx, b, WriteOptions{Durability: DurabilitySync}); err != nil {
		t.Fatal(err)
	}
	want := db.Len()

	ckptBefore := db.logs[0].CheckpointLSN()
	liveBefore := db.logs[0].LiveBytes()
	faults.ArmNoSpace(1, true)
	if err := db.Sync(); err == nil {
		t.Fatal("checkpoint on a full device succeeded")
	}
	if got := db.logs[0].CheckpointLSN(); got != ckptBefore {
		t.Fatalf("failed checkpoint advanced the checkpoint LSN %d -> %d", ckptBefore, got)
	}
	if got := db.logs[0].LiveBytes(); got < liveBefore {
		t.Fatalf("failed checkpoint truncated live records (%d -> %d bytes)", liveBefore, got)
	}
	faults.DisarmNoSpace()

	// Crash with the page file mid-flush: recovery must replay batch B
	// from the log the failed checkpoint left intact.
	if err := db.crash(); err != nil {
		t.Fatal(err)
	}
	db2, _, err := openFaulted(path, recoverSpec{
		forceWAL: true, bufferPages: bufPages, clock: clk.Now,
	}, nil)
	if err != nil {
		t.Fatalf("reopen after failed checkpoint + crash: %v", err)
	}
	defer db2.Close()
	if rep := db2.recovery[0]; rep.WALRecordsReplayed == 0 {
		t.Fatal("recovery replayed nothing though the checkpoint failed")
	}
	if got := db2.Len(); got != want {
		t.Fatalf("recovered %d objects, want %d (acked batch lost)", got, want)
	}
}

// TestShardedMaintenanceRace runs a live (goroutine) maintenance loop
// against concurrent writers and caller Syncs on a sharded WAL-armed
// database until the loop has ticked a few times; the race detector
// referees.
func TestShardedMaintenanceRace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.dynq")
	if err := createFiles(shardLayout(path), 4, true, 0, nil); err != nil {
		t.Fatal(err)
	}
	e, err := recoverEngine(recoverSpec{
		lay: shardLayout(path), units: 4, forceWAL: true,
		maint: maintPolicy{checkpointBytes: 8 << 10, probeBackoff: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	db := &DB{e}
	defer db.Close()
	ctx := context.Background()
	ticked := func() bool { return db.maint.ticks.Load() >= 3 }
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(100 + w)))
			next := ObjectID(1 + 10_000*w)
			for i := 0; i < 25 || !ticked(); i++ {
				ups := toUpdates(genSoakBatch(r, 8, &next))
				if err := db.ApplyUpdates(ctx, ups, WriteOptions{Durability: DurabilitySync}); err != nil {
					t.Errorf("writer %d batch %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10 || !ticked(); i++ {
				if err := db.Sync(); err != nil {
					t.Errorf("concurrent Sync: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if _, ok := db.MaintenanceTelemetry(); !ok {
		t.Fatal("maintenance loop not running on the sharded database")
	}
}

// TestShippedMaintenancePacing holds the shipped policy's pacing: the
// scrubber verifies maintScrubPagesPerSec pages a second, 62 or 63 a tick
// with the half page carried over, and a failing probe waits twice as
// long as the last one, from maintProbeBackoff to 32 times it.
func TestShippedMaintenancePacing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.dynq")
	buildCheckFile(t, path, 30000)
	clk := &chaosClock{t: time.Unix(1_700_000_000, 0)}
	db, faults, err := openFaulted(path, recoverSpec{forceWAL: true, maint: maintFor(true), clock: clk.Now}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	st, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if pages := st.LeafNodes + st.InternalNodes; pages <= maintScrubPagesPerSec {
		t.Fatalf("the tree has %d pages, too few to time a second of scrubbing", pages)
	}
	for i, want := range []int64{62, 125, 187, 250} {
		db.maint.tick()
		if got := db.maint.scrubPageCount.Load(); got != want {
			t.Fatalf("tick %d: %d pages scrubbed, want %d", i+1, got, want)
		}
	}

	faults.ArmNoSpace(1, true)
	if err := db.Sync(); !errors.Is(err, ErrDiskFull) {
		t.Fatalf("Sync on a full device returned %v, want ErrDiskFull", err)
	}
	for probes, want := range []time.Duration{2, 4, 8, 16, 32, 32} {
		db.maint.tick()
		tel, _ := db.MaintenanceTelemetry()
		if tel.Probes != int64(probes+1) || tel.NextProbeInSeconds != (want*maintProbeBackoff).Seconds() {
			t.Fatalf("after %d failed probes: %+v, want the next in %v", probes+1, tel, want*maintProbeBackoff)
		}
		clk.Advance(want * maintProbeBackoff)
	}
}
