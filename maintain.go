package dynq

// Self-healing maintenance: a background loop that keeps a database
// healthy without operator intervention.
//
//	healthy ──write/scrub failure──▶ degraded ──probe succeeds──▶ healthy
//	   │                                 ▲  │
//	   └── auto-checkpoint + scrub       │  └── probing (capped
//	       while healthy                 │      exponential backoff)
//	                                     └── scrub corruption holds the
//	                                         flag until a clean pass
//
// The loop has three jobs, all driven from one clock-injectable tick:
//
//   - Auto-checkpoint: when a write-ahead log's live bytes reach the
//     policy's bound, the loop checkpoints it through the same Sync
//     machinery callers use — worst-pressure log first when there are
//     several — so the log, and the replay a reopen pays, stays bounded
//     with no caller cooperation.
//
//   - Degraded-mode probe: once the database trips read-only, the loop
//     periodically clears sticky log sync errors, re-verifies the page
//     file header, and attempts a small self-canceling durable write
//     (insert + delete of a reserved object id, then a checkpoint). A
//     successful probe clears the degraded flag and journals the exit
//     with the probe count and downtime; failures double the backoff up
//     to a cap. The degrade threshold becomes a circuit breaker, not a
//     one-way latch.
//
//   - Background scrub: the tree check recovery runs (rtree.Walk),
//     rate-limited, over the COMMITTED tree's reachable pages: checksums,
//     epoch trailers and structure. Unrepairable corruption trips
//     degraded mode and holds it until a later pass comes back clean
//     (probing resumes then), so a bit-flip cannot hide until the next
//     crash.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dynq/internal/obs"
	"dynq/internal/rtree"
)

// maintPolicy is what the maintenance loop runs on. A database opened
// with Options.Maintenance or RecoverOptions.Maintenance runs the
// shipped one, maintFor(true); tests set their own through
// recoverSpec.maint. A zero field turns its job off (probeBackoff 0
// means maintProbeBackoff), and the zero policy starts no loop.
type maintPolicy struct {
	checkpointBytes  int64         // checkpoint a log once its live bytes reach this
	scrubPagesPerSec int           // committed pages verified per second, spread across ticks
	probeBackoff     time.Duration // first spacing of degraded-mode probes, doubling to 32×
}

// The shipped policy's constants. DESIGN.md "The maintenance loop"
// records the measurement behind each and the test that holds it.
const (
	// maintCheckpointBytes bounds a log's live bytes, and so the replay a
	// reopen pays: replay runs at about 9 MB/s, so 8 MiB replays in about
	// a second.
	maintCheckpointBytes = 8 << 20
	// maintScrubPagesPerSec paces the scrubber: at about 3 µs a page, 62
	// or 63 pages a tick hold the database lock about 0.2 ms in 250 ms.
	maintScrubPagesPerSec = 250
	// maintProbeBackoff is the first spacing of degraded-mode probes.
	maintProbeBackoff = time.Second

	maintInterval         = 250 * time.Millisecond
	maxProbeBackoffFactor = 32
)

// maintFor is the policy of a database opened with the Maintenance
// option on or off: the shipped one, or none.
func maintFor(on bool) maintPolicy {
	if !on {
		return maintPolicy{}
	}
	return maintPolicy{
		checkpointBytes:  maintCheckpointBytes,
		scrubPagesPerSec: maintScrubPagesPerSec,
		probeBackoff:     maintProbeBackoff,
	}
}

// maintProbeID is the reserved object id the recovery probe inserts and
// deletes. It is distinct from dqtop's write-probe base (1<<60) so an
// operator probe and the maintenance loop never collide.
const maintProbeID ObjectID = 1<<61 + 1

// errScrubUnsupported marks a store without the page-verification
// capability (an in-memory database): the loop never scrubs it.
var errScrubUnsupported = errors.New("dynq: store does not support scrubbing (no page epochs)")

// maintainer is the background maintenance loop's state. One per
// database; tick runs on a single goroutine (or is driven manually),
// telemetry readers synchronize through atomics and mu.
type maintainer struct {
	target *engine
	opts   maintPolicy
	now    func() time.Time

	manual   bool
	stopc    chan struct{}
	donec    chan struct{}
	stopOnce sync.Once

	// Counters, exact and lock-free for telemetry and metrics.
	ticks              atomic.Int64
	autoCheckpoints    atomic.Int64
	checkpointFailures atomic.Int64
	probeCount         atomic.Int64
	probeFailures      atomic.Int64
	heals              atomic.Int64
	scrubPageCount     atomic.Int64
	scrubCorruptCount  atomic.Int64
	scrubPassCount     atomic.Int64
	scrubReached       atomic.Int64 // pages into the current unit's walk
	downtimeNS         atomic.Int64
	pressureBits       atomic.Uint64

	// Episodic state, guarded by mu (tick mutates, telemetry reads).
	mu            sync.Mutex
	degradedAt    time.Time // start of the current degraded episode
	nextProbe     time.Time
	probeDelay    time.Duration
	episodeProbes int
	corrupt       bool // scrub-tripped: probing paused until a clean pass
	lastProbeErr  string
	lastScrubErr  string
	scrubBudget   float64 // fractional page budget carried across ticks
	scrub         scrubCursor
	lastScrubNote time.Time // rate-limits pass-completion journal events
}

// startMaintainer builds and starts the maintenance loop for a database.
// With a clock it starts no goroutine: the caller ticks the loop under
// that clock (the chaos soak and tests). Returns nil for the zero
// policy.
func startMaintainer(t *engine, opts maintPolicy, clock func() time.Time) *maintainer {
	if opts == (maintPolicy{}) {
		return nil
	}
	if opts.probeBackoff <= 0 {
		opts.probeBackoff = maintProbeBackoff
	}
	m := &maintainer{
		target: t,
		opts:   opts,
		now:    time.Now,
		stopc:  make(chan struct{}),
		donec:  make(chan struct{}),
	}
	if _, ok := t.units.Shard(0).Store().(committedStore); !ok && opts.scrubPagesPerSec > 0 {
		m.lastScrubErr, m.opts.scrubPagesPerSec = errScrubUnsupported.Error(), 0
	}
	if clock != nil {
		m.now, m.manual = clock, true
		return m
	}
	go m.run()
	return m
}

func (m *maintainer) run() {
	defer close(m.donec)
	t := time.NewTicker(maintInterval)
	defer t.Stop()
	for {
		select {
		case <-m.stopc:
			return
		case <-t.C:
			m.tick()
		}
	}
}

// stop terminates the loop and waits for an in-flight tick to finish.
// Safe on a nil maintainer and safe to call twice.
func (m *maintainer) stop() {
	if m == nil {
		return
	}
	m.stopOnce.Do(func() {
		close(m.stopc)
		if !m.manual {
			<-m.donec
		}
	})
}

// tick runs one maintenance iteration: recovery work while the database
// is degraded, checkpoint policy and scrubbing while it is healthy.
func (m *maintainer) tick() {
	m.ticks.Add(1)
	now := m.now()
	if m.target.Degraded() {
		m.mu.Lock()
		corrupt := m.corrupt
		m.mu.Unlock()
		if corrupt {
			// Scrub tripped the flag: a durable write proves nothing about
			// the corrupt page, so keep scrubbing instead of probing — a
			// fully clean pass clears the hold and probing resumes.
			m.scrubTick(now)
			return
		}
		m.probeTick(now)
		return
	}
	m.mu.Lock()
	m.degradedAt, m.nextProbe, m.episodeProbes = time.Time{}, time.Time{}, 0
	m.probeDelay = 0
	m.mu.Unlock()
	m.checkpointTick()
	m.scrubTick(now)
}

// checkpointTick checkpoints every armed log whose live bytes reached
// the policy's bound, worst pressure (live bytes over the bound) first.
func (m *maintainer) checkpointTick() {
	logs := m.target.logs
	if m.opts.checkpointBytes <= 0 || logs == nil {
		return
	}
	type dueLog struct {
		idx      int
		pressure float64
	}
	var due []dueLog
	var maxP float64
	for i, w := range logs {
		p := float64(w.LiveBytes()) / float64(m.opts.checkpointBytes)
		maxP = max(maxP, p)
		if p >= 1 {
			due = append(due, dueLog{i, p})
		}
	}
	m.pressureBits.Store(math.Float64bits(maxP))
	if len(due) == 0 {
		return
	}
	sort.Slice(due, func(a, b int) bool { return due[a].pressure > due[b].pressure })
	idx := make([]int, len(due))
	for i, d := range due {
		idx[i] = d.idx
	}
	if err := m.target.autoCheckpoint(idx); err != nil {
		m.checkpointFailures.Add(1)
		obs.DefaultJournal().Record(obs.EventAutoCheckpoint, obs.SeverityWarn,
			"auto-checkpoint failed", map[string]string{
				"logs":  strconv.Itoa(len(idx)),
				"error": err.Error(),
			})
		return
	}
	m.autoCheckpoints.Add(1)
	m.pressureBits.Store(0)
	obs.DefaultJournal().Record(obs.EventAutoCheckpoint, obs.SeverityInfo,
		"auto-checkpoint: policy threshold crossed; log truncated",
		map[string]string{
			"logs":     strconv.Itoa(len(idx)),
			"pressure": strconv.FormatFloat(maxP, 'f', 2, 64),
		})
}

// probeTick drives degraded-mode recovery: repair what is sticky, then
// attempt the durable probe write, backing off exponentially (capped)
// between failures.
func (m *maintainer) probeTick(now time.Time) {
	m.mu.Lock()
	if m.degradedAt.IsZero() {
		m.degradedAt = now
		m.probeDelay = m.opts.probeBackoff
		m.nextProbe = now // first probe fires immediately
		m.episodeProbes = 0
	}
	if now.Before(m.nextProbe) {
		m.mu.Unlock()
		return
	}
	m.episodeProbes++
	attempt := m.episodeProbes
	degradedAt := m.degradedAt
	m.mu.Unlock()

	m.probeCount.Add(1)
	err := m.target.repair()
	if err == nil {
		err = m.target.probe()
	}
	if err != nil {
		m.probeFailures.Add(1)
		m.mu.Lock()
		m.lastProbeErr = err.Error()
		m.probeDelay *= 2
		m.probeDelay = min(m.probeDelay, m.opts.probeBackoff*maxProbeBackoffFactor)
		m.nextProbe = now.Add(m.probeDelay)
		delay := m.probeDelay
		m.mu.Unlock()
		obs.DefaultJournal().Record(obs.EventProbe, obs.SeverityWarn,
			"degraded-mode recovery probe failed", map[string]string{
				"attempt":      strconv.Itoa(attempt),
				"error":        err.Error(),
				"next_backoff": delay.String(),
			})
		return
	}
	downtime := now.Sub(degradedAt)
	m.downtimeNS.Add(int64(downtime))
	if m.target.health.heal(attempt, downtime) {
		m.heals.Add(1)
	}
	m.mu.Lock()
	m.lastProbeErr = ""
	m.degradedAt, m.nextProbe, m.episodeProbes = time.Time{}, time.Time{}, 0
	m.probeDelay = 0
	m.mu.Unlock()
	obs.DefaultJournal().Record(obs.EventProbe, obs.SeverityInfo,
		"recovery probe wrote durably; database healed", map[string]string{
			"probes":   strconv.Itoa(attempt),
			"downtime": downtime.Round(time.Millisecond).String(),
		})
}

// scrubTick spends this tick's page budget walking the committed tree.
func (m *maintainer) scrubTick(now time.Time) {
	if m.opts.scrubPagesPerSec <= 0 {
		return
	}
	m.mu.Lock()
	m.scrubBudget += float64(m.opts.scrubPagesPerSec) * maintInterval.Seconds()
	budget := int(m.scrubBudget)
	if budget < 1 {
		m.mu.Unlock()
		return
	}
	m.scrubBudget -= float64(budget)
	s := &m.scrub
	m.mu.Unlock()

	// The cursor is only ever touched by tick (single goroutine), so the
	// target may mutate it outside m.mu.
	res := m.target.scrub(s, budget)
	m.scrubReached.Store(int64(res.reached))
	m.scrubPageCount.Add(int64(res.pages))
	m.scrubCorruptCount.Add(int64(res.corruptions))
	if res.passDone {
		m.scrubPassCount.Add(1)
	}
	if res.corruptions > 0 {
		m.mu.Lock()
		m.corrupt = true
		m.lastScrubErr = res.lastErr.Error()
		m.mu.Unlock()
		msg := "background scrub found unrepairable page corruption; degrading to read-only"
		fields := map[string]string{
			"corrupt_pages": strconv.Itoa(res.corruptions),
			"error":         res.lastErr.Error(),
		}
		obs.DefaultJournal().Record(obs.EventScrub, obs.SeverityError, msg, fields)
		m.target.health.trip(msg, fields)
		return
	}
	if res.passDone && res.passClean {
		m.mu.Lock()
		wasCorrupt := m.corrupt
		m.corrupt = false
		m.lastScrubErr = ""
		note := wasCorrupt || now.Sub(m.lastScrubNote) >= time.Minute
		if note {
			m.lastScrubNote = now
		}
		m.mu.Unlock()
		if wasCorrupt {
			// A fully clean pass lifts the corruption hold; the probe path
			// takes over and clears the degraded flag with a durable write.
			obs.DefaultJournal().Record(obs.EventScrub, obs.SeverityInfo,
				"scrub pass clean; corruption hold lifted, recovery probing resumes", nil)
		} else if note {
			obs.DefaultJournal().Record(obs.EventScrub, obs.SeverityInfo,
				"background scrub pass completed", map[string]string{
					"passes": strconv.FormatInt(m.scrubPassCount.Load(), 10),
					"pages":  strconv.FormatInt(m.scrubPageCount.Load(), 10),
				})
		}
	}
}

// telemetry snapshots the loop for the obs/netq maintenance section.
func (m *maintainer) telemetry() obs.MaintenanceTelemetry {
	now := m.now()
	t := obs.MaintenanceTelemetry{
		Ticks:                m.ticks.Load(),
		Checkpoints:          m.autoCheckpoints.Load(),
		CheckpointFailures:   m.checkpointFailures.Load(),
		CheckpointPressure:   math.Float64frombits(m.pressureBits.Load()),
		Degraded:             m.target.Degraded(),
		Probes:               m.probeCount.Load(),
		ProbeFailures:        m.probeFailures.Load(),
		Heals:                m.heals.Load(),
		DowntimeTotalSeconds: time.Duration(m.downtimeNS.Load()).Seconds(),
		ScrubPages:           m.scrubPageCount.Load(),
		ScrubCorruptions:     m.scrubCorruptCount.Load(),
		ScrubPasses:          m.scrubPassCount.Load(),
		ScrubCursor:          m.scrubReached.Load(),
	}
	m.mu.Lock()
	if !m.degradedAt.IsZero() {
		t.DegradedSeconds = now.Sub(m.degradedAt).Seconds()
	}
	if t.Degraded && !m.nextProbe.IsZero() {
		if d := m.nextProbe.Sub(now); d > 0 {
			t.NextProbeInSeconds = d.Seconds()
		}
	}
	t.LastProbeError = m.lastProbeErr
	t.LastScrubError = m.lastScrubErr
	m.mu.Unlock()
	return t
}

// registerMetrics exposes the loop's counters in a metric registry.
func (m *maintainer) registerMetrics(reg *obs.Registry) {
	reg.SetHelp("dynq_maintenance_ticks_total", "Maintenance loop iterations.")
	reg.SetHelp("dynq_maintenance_checkpoints_total", "Policy-driven WAL checkpoints completed by the maintenance loop.")
	reg.SetHelp("dynq_maintenance_checkpoint_failures_total", "Policy-driven WAL checkpoints that failed.")
	reg.SetHelp("dynq_maintenance_checkpoint_pressure", "Worst log's live bytes as a fraction of the checkpoint bound (>= 1 means due).")
	reg.SetHelp("dynq_maintenance_probes_total", "Degraded-mode recovery probes attempted.")
	reg.SetHelp("dynq_maintenance_probe_failures_total", "Degraded-mode recovery probes that failed.")
	reg.SetHelp("dynq_maintenance_heals_total", "Degraded episodes cleared by a successful probe.")
	reg.SetHelp("dynq_maintenance_downtime_seconds_total", "Cumulative read-only time across healed episodes.")
	reg.SetHelp("dynq_scrub_pages_total", "Pages verified by the background scrubber.")
	reg.SetHelp("dynq_scrub_corruptions_total", "Pages the scrubber failed to verify (checksum, epoch, or decode).")
	reg.SetHelp("dynq_scrub_passes_total", "Complete scrub sweeps of the reachable page set.")
	reg.GaugeFunc("dynq_maintenance_ticks_total", func() float64 { return float64(m.ticks.Load()) })
	reg.GaugeFunc("dynq_maintenance_checkpoints_total", func() float64 { return float64(m.autoCheckpoints.Load()) })
	reg.GaugeFunc("dynq_maintenance_checkpoint_failures_total", func() float64 { return float64(m.checkpointFailures.Load()) })
	reg.GaugeFunc("dynq_maintenance_checkpoint_pressure", func() float64 { return math.Float64frombits(m.pressureBits.Load()) })
	reg.GaugeFunc("dynq_maintenance_probes_total", func() float64 { return float64(m.probeCount.Load()) })
	reg.GaugeFunc("dynq_maintenance_probe_failures_total", func() float64 { return float64(m.probeFailures.Load()) })
	reg.GaugeFunc("dynq_maintenance_heals_total", func() float64 { return float64(m.heals.Load()) })
	reg.GaugeFunc("dynq_maintenance_downtime_seconds_total", func() float64 {
		return time.Duration(m.downtimeNS.Load()).Seconds()
	})
	reg.GaugeFunc("dynq_scrub_pages_total", func() float64 { return float64(m.scrubPageCount.Load()) })
	reg.GaugeFunc("dynq_scrub_corruptions_total", func() float64 { return float64(m.scrubCorruptCount.Load()) })
	reg.GaugeFunc("dynq_scrub_passes_total", func() float64 { return float64(m.scrubPassCount.Load()) })
}

// ---------------------------------------------------------------------
// Scrubbing: the tree check (rtree.Walk) over the COMMITTED trees,
// resumable across ticks within a rate budget.

// scrubCursor is where the scrub stands: the unit (shard) being walked,
// its walk (nil between units) and the faults found so far in this pass.
// It persists across ticks; only the tick goroutine touches it.
type scrubCursor struct {
	unit   int
	walk   *rtree.Walk
	faults int
}

// scrubResult reports one scrub call's work.
type scrubResult struct {
	pages       int
	corruptions int
	passDone    bool  // every unit's walk completed
	passClean   bool  // the completed pass found no fault, in any tick
	reached     int   // pages the current unit's walk has reached
	lastErr     error // most recent corruption detail, set with corruptions
}

// ---------------------------------------------------------------------
// What the loop does to its engine.

// autoCheckpoint checkpoints only the listed units (already worst
// pressure first), paying for the lagging logs instead of all of them.
func (e *engine) autoCheckpoint(units []int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.health.gate(); err != nil {
		return err
	}
	return e.checkpointLocked(units)
}

// repair clears recoverable fault state before a probe: sticky log sync
// errors are retried and every page file's header re-verified.
func (e *engine) repair() error {
	n := e.units.Shards()
	for i, w := range e.logs {
		if err := w.RetrySync(); err != nil {
			return fmt.Errorf("dynq: probe retry sync%s: %w", where(i, n), err)
		}
	}
	for i := 0; i < n; i++ {
		if v, ok := e.units.Shard(i).Store().(interface{ VerifyHeader() error }); ok {
			if err := v.VerifyHeader(); err != nil {
				return fmt.Errorf("dynq: probe header check%s: %w", where(i, n), err)
			}
		}
	}
	return nil
}

// probe attempts a small self-canceling durable write while the database
// is degraded (the write path runs ungated), then a checkpoint.
func (e *engine) probe() error {
	ctx := context.Background()
	pt := make([]float64, e.dims)
	ins := []MotionUpdate{{ID: maintProbeID, Segment: Segment{From: pt, To: pt}}}
	del := []MotionUpdate{{ID: maintProbeID, Delete: true}}
	// Clear a probe segment a previously half-failed probe left behind.
	if err := e.applyUpdates(ctx, del, WriteOptions{}, false); err != nil && !errors.Is(err, ErrNotFound) {
		return err
	}
	opts := WriteOptions{}
	if e.logs != nil {
		opts.Durability = DurabilitySync
	}
	if err := e.applyUpdates(ctx, ins, opts, false); err != nil {
		return err
	}
	if err := e.applyUpdates(ctx, del, WriteOptions{}, false); err != nil {
		return err
	}
	// Prove the checkpoint path too: degradations caused by a failed
	// Sync must not heal while Sync still fails — and the checkpoint
	// truncates the probe records out of the log.
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.checkpointLocked(nil)
}

// scrub checks up to budget reachable pages of the committed trees,
// unit after unit from the cursor in s, under the database's exclusive
// lock, so no page is written meanwhile. Between ticks checkpoints and
// write-backs go on: a page written since the last commit may carry the
// next epoch, and one rewritten since its unit's walk began is skipped
// with its subtree (walkCommitted); the next pass checks it from the new
// root.
func (e *engine) scrub(s *scrubCursor, budget int) scrubResult {
	e.mu.Lock()
	defer e.mu.Unlock()
	var res scrubResult
	fault := func(err error) {
		res.corruptions++
		s.faults++
		res.lastErr = err
	}
	for budget > 0 {
		if s.walk == nil {
			cs := e.units.Shard(s.unit).Store().(committedStore) // startMaintainer checked
			w, _, _, err := walkCommitted(cs, 1)
			if err != nil {
				fault(fmt.Errorf("scrub: committed metadata: %w", err))
			}
			s.walk = w
		}
		if s.walk != nil {
			n, err := s.walk.Step(budget)
			budget -= n
			res.pages += n
			if err != nil {
				fault(fmt.Errorf("%w: scrub: %w", ErrCorrupt, err))
			}
			if !s.walk.Done() {
				continue
			}
		}
		s.walk = nil
		if s.unit++; s.unit < e.units.Shards() {
			continue
		}
		s.unit = 0
		res.passDone, res.passClean = true, s.faults == 0
		s.faults = 0
		break
	}
	if s.walk != nil {
		res.reached = len(s.walk.Reached())
	}
	return res
}

// MaintenanceTelemetry returns the self-healing loop's snapshot; ok is
// false when no maintenance loop is running.
func (e *engine) MaintenanceTelemetry() (obs.MaintenanceTelemetry, bool) {
	if e.maint == nil {
		return obs.MaintenanceTelemetry{}, false
	}
	return e.maint.telemetry(), true
}

// RegisterMaintenanceMetrics exposes the maintenance loop's counters in
// a metric registry, reporting whether a loop was running to register.
func (e *engine) RegisterMaintenanceMetrics(reg *obs.Registry) bool {
	if e.maint == nil {
		return false
	}
	e.maint.registerMetrics(reg)
	return true
}
