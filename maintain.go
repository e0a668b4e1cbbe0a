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
//   - Auto-checkpoint: when a write-ahead log crosses a CheckpointPolicy
//     threshold (live bytes or age of the oldest un-checkpointed record),
//     the loop checkpoints it through the same
//     Sync machinery callers use — worst-pressure log first when there
//     are several — so the log stays bounded with no caller cooperation.
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
//   - Background scrub: a rate-limited walker re-reads the COMMITTED
//     tree's reachable pages through the store, verifying checksums and
//     epoch trailers. Unrepairable corruption trips degraded mode and
//     holds it until a later pass comes back clean (probing resumes
//     then), so a bit-flip cannot hide until the next crash.

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
	"dynq/internal/pager"
	"dynq/internal/rtree"
)

// CheckpointPolicy bounds a write-ahead log without caller cooperation:
// the maintenance loop checkpoints any log that crosses one of the
// thresholds. The zero value disables policy-driven checkpointing.
type CheckpointPolicy struct {
	// MaxBytes checkpoints a log once its live record bytes (bytes
	// appended since the last checkpoint) reach this many. 0 disables.
	MaxBytes int64
	// MaxAge checkpoints a log once its oldest un-checkpointed record is
	// this old. 0 disables.
	MaxAge time.Duration
}

func (p CheckpointPolicy) enabled() bool {
	return p.MaxBytes > 0 || p.MaxAge > 0
}

// pressure is how close a log is to its nearest threshold: the maximum
// ratio across enabled thresholds, so >= 1 means the log is due.
func (p CheckpointPolicy) pressure(live int64, since, now time.Time) float64 {
	var m float64
	if p.MaxBytes > 0 {
		if r := float64(live) / float64(p.MaxBytes); r > m {
			m = r
		}
	}
	if p.MaxAge > 0 && !since.IsZero() {
		if r := float64(now.Sub(since)) / float64(p.MaxAge); r > m {
			m = r
		}
	}
	return m
}

// MaintenanceOptions configure the self-healing maintenance loop, which
// ticks every 250ms. The zero value disables it entirely; setting any of
// Checkpoint, ScrubPagesPerSec, or ProbeBackoff starts it. Whenever the
// loop runs, degraded-mode probing is on — ProbeBackoff only tunes its
// pacing.
type MaintenanceOptions struct {
	// Checkpoint is the auto-checkpoint policy (WAL-armed databases
	// only; without a log there is nothing to bound).
	Checkpoint CheckpointPolicy
	// ScrubPagesPerSec rate-limits the background scrubber (pages
	// verified per second, spread across ticks). 0 disables scrubbing.
	// Only file-backed stores can be scrubbed; an in-memory database
	// records one "unsupported" error and stops.
	ScrubPagesPerSec int
	// ProbeBackoff is the initial spacing between degraded-mode recovery
	// probes; each failure doubles it up to 32x. 0 means the 1s default.
	ProbeBackoff time.Duration
}

// Enabled reports whether these options start a maintenance loop.
func (m MaintenanceOptions) Enabled() bool {
	return m.Checkpoint.enabled() || m.ScrubPagesPerSec > 0 || m.ProbeBackoff > 0
}

const (
	maintInterval         = 250 * time.Millisecond
	defaultProbeBackoff   = time.Second
	maxProbeBackoffFactor = 32
)

// maintProbeID is the reserved object id the recovery probe inserts and
// deletes. It is distinct from dqtop's write-probe base (1<<60) so an
// operator probe and the maintenance loop never collide.
const maintProbeID ObjectID = 1<<61 + 1

// errScrubUnsupported marks a store without the page-verification
// capability (an in-memory database); the scrubber disables itself.
var errScrubUnsupported = errors.New("dynq: store does not support scrubbing (no page epochs)")

// maintainer is the background maintenance loop's state. One per
// database; tick runs on a single goroutine (or is driven manually),
// telemetry readers synchronize through atomics and mu.
type maintainer struct {
	target *engine
	opts   MaintenanceOptions
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
	downtimeNS         atomic.Int64
	pressureBits       atomic.Uint64

	// Episodic state, guarded by mu (tick mutates, telemetry reads).
	mu            sync.Mutex
	lagSince      []time.Time // per log: when it was first seen lagging
	degradedAt    time.Time   // start of the current degraded episode
	nextProbe     time.Time
	probeDelay    time.Duration
	episodeProbes int
	corrupt       bool // scrub-tripped: probing paused until a clean pass
	lastProbeErr  string
	lastScrubErr  string
	scrubBudget   float64 // fractional page budget carried across ticks
	scrub         scrubState
	lastScrubNote time.Time // rate-limits pass-completion journal events
}

// startMaintainer builds and starts the maintenance loop for a database.
// With a clock it starts no goroutine: the caller ticks the loop under
// that clock (the chaos soak and tests). Returns nil when the options
// disable the loop.
func startMaintainer(t *engine, opts MaintenanceOptions, clock func() time.Time) *maintainer {
	if !opts.Enabled() {
		return nil
	}
	if opts.ProbeBackoff <= 0 {
		opts.ProbeBackoff = defaultProbeBackoff
	}
	m := &maintainer{
		target: t,
		opts:   opts,
		now:    time.Now,
		stopc:  make(chan struct{}),
		donec:  make(chan struct{}),
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
	m.checkpointTick(now)
	m.scrubTick(now)
}

// checkpointTick evaluates the checkpoint policy against every armed
// log and checkpoints the ones past a threshold, worst pressure first.
func (m *maintainer) checkpointTick(now time.Time) {
	if !m.opts.Checkpoint.enabled() {
		return
	}
	logs := m.target.logs
	if logs == nil {
		return
	}
	m.mu.Lock()
	if len(m.lagSince) != len(logs) {
		m.lagSince = make([]time.Time, len(logs))
	}
	type dueLog struct {
		idx      int
		pressure float64
	}
	var due []dueLog
	var maxP float64
	for i, w := range logs {
		lag := w.CheckpointLag()
		if lag == 0 {
			m.lagSince[i] = time.Time{}
		} else if m.lagSince[i].IsZero() {
			m.lagSince[i] = now
		}
		p := m.opts.Checkpoint.pressure(w.LiveBytes(), m.lagSince[i], now)
		if p > maxP {
			maxP = p
		}
		if p >= 1 {
			due = append(due, dueLog{i, p})
		}
	}
	m.mu.Unlock()
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
	m.mu.Lock()
	for _, d := range due {
		if d.idx < len(m.lagSince) {
			m.lagSince[d.idx] = time.Time{}
		}
	}
	m.mu.Unlock()
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
		m.probeDelay = m.opts.ProbeBackoff
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
		if max := m.opts.ProbeBackoff * maxProbeBackoffFactor; m.probeDelay > max {
			m.probeDelay = max
		}
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
	if m.opts.ScrubPagesPerSec <= 0 {
		return
	}
	m.mu.Lock()
	if m.lastScrubErr == errScrubUnsupported.Error() {
		m.mu.Unlock()
		return
	}
	m.scrubBudget += float64(m.opts.ScrubPagesPerSec) * maintInterval.Seconds()
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
	m.scrubPageCount.Add(int64(res.pages))
	m.scrubCorruptCount.Add(int64(res.corruptions))
	if res.passDone {
		m.scrubPassCount.Add(1)
	}
	if res.err != nil {
		m.mu.Lock()
		m.lastScrubErr = res.err.Error()
		m.mu.Unlock()
		return
	}
	if res.corruptions > 0 {
		m.mu.Lock()
		m.corrupt = true
		if res.lastErr != nil {
			m.lastScrubErr = res.lastErr.Error()
		}
		m.mu.Unlock()
		msg := "background scrub found unrepairable page corruption; degrading to read-only"
		fields := map[string]string{
			"corrupt_pages": strconv.Itoa(res.corruptions),
		}
		if res.lastErr != nil {
			fields["error"] = res.lastErr.Error()
		}
		obs.DefaultJournal().Record(obs.EventScrub, obs.SeverityError, msg, fields)
		m.target.health.trip(msg, fields)
		return
	}
	if res.passDone {
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
	t.ScrubCursor = int64(len(m.scrub.walk.seen))
	m.mu.Unlock()
	return t
}

// registerMetrics exposes the loop's counters in a metric registry.
func (m *maintainer) registerMetrics(reg *obs.Registry) {
	reg.SetHelp("dynq_maintenance_ticks_total", "Maintenance loop iterations.")
	reg.SetHelp("dynq_maintenance_checkpoints_total", "Policy-driven WAL checkpoints completed by the maintenance loop.")
	reg.SetHelp("dynq_maintenance_checkpoint_failures_total", "Policy-driven WAL checkpoints that failed.")
	reg.SetHelp("dynq_maintenance_checkpoint_pressure", "Worst log's fraction of its nearest checkpoint threshold (>= 1 means due).")
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
// Scrubbing: an incremental BFS over the COMMITTED tree, resumable
// across ticks within a rate budget.

// scrubState is the scrub cursor: which unit (shard) is being walked
// and the walk's frontier. It persists across ticks; only the tick
// goroutine touches it.
type scrubState struct {
	unit int
	walk scrubWalk
}

// scrubWalk is one unit's in-progress BFS.
type scrubWalk struct {
	active  bool
	passSeq uint64 // committed header seq when this walk began
	cfg     rtree.Config
	queue   []pager.PageID
	seen    map[pager.PageID]struct{}
}

// scrubResult reports one scrub call's work.
type scrubResult struct {
	pages       int
	corruptions int
	unitDone    bool  // current unit's walk completed
	passDone    bool  // every unit's walk completed (set by engine.scrub)
	lastErr     error // most recent corruption detail
	err         error // non-corruption failure (disables scrubbing)
}

func (r *scrubResult) add(o scrubResult) {
	r.pages += o.pages
	r.corruptions += o.corruptions
	if o.lastErr != nil {
		r.lastErr = o.lastErr
	}
}

// scrubPageReader is the store capability the scrubber needs; FileStore
// implements it and FaultStore forwards it.
type scrubPageReader interface {
	ReadPageEpoch(pager.PageID, []byte) (uint64, error)
	CommittedSeq() uint64
}

// scrubStep verifies up to budget pages of one unit's committed tree.
// The caller holds the database's exclusive lock, so no page is being
// written concurrently; pages rewritten since the walk began (their
// epoch is newer than the walk's passSeq) are skipped — the next pass
// covers them from the new committed root.
func scrubStep(store pager.Store, w *scrubWalk, budget int) scrubResult {
	var res scrubResult
	pr, ok := store.(scrubPageReader)
	aux, ok2 := store.(auxStore)
	if !ok || !ok2 {
		res.err = errScrubUnsupported
		return res
	}
	if !w.active {
		meta, _, err := decodeMeta(aux.Aux())
		if err != nil {
			res.corruptions++
			res.lastErr = fmt.Errorf("scrub: committed metadata: %w", err)
			res.unitDone = true
			return res
		}
		w.active = true
		w.passSeq = pr.CommittedSeq()
		w.cfg = meta.Config
		w.queue = w.queue[:0]
		w.seen = make(map[pager.PageID]struct{})
		if meta.Root != pager.InvalidPage {
			w.queue = append(w.queue, meta.Root)
		}
	}
	buf := make([]byte, pager.PageSize)
	for res.pages < budget && len(w.queue) > 0 {
		id := w.queue[len(w.queue)-1]
		w.queue = w.queue[:len(w.queue)-1]
		if _, dup := w.seen[id]; dup {
			// A stale pointer can alias pages already visited; the seen
			// set keeps cycles from walking forever.
			continue
		}
		w.seen[id] = struct{}{}
		res.pages++
		if uint32(id) >= uint32(store.NumPages()) {
			res.corruptions++
			res.lastErr = fmt.Errorf("%w: scrub: child pointer %d beyond allocated pages (%d)", ErrCorrupt, id, store.NumPages())
			continue
		}
		epoch, err := pr.ReadPageEpoch(id, buf)
		if err != nil {
			res.corruptions++
			res.lastErr = fmt.Errorf("%w: scrub: page %d: %w", ErrCorrupt, id, err)
			continue
		}
		seq := pr.CommittedSeq()
		if epoch > seq+1 {
			// Nothing live can carry an epoch from the future; a torn
			// flush overwrote committed state.
			res.corruptions++
			res.lastErr = fmt.Errorf("%w: scrub: page %d carries epoch %d newer than committed header %d", ErrCorrupt, id, epoch, seq)
			continue
		}
		if epoch > w.passSeq {
			// Rewritten since this walk began (a checkpoint or eviction
			// write-back between ticks); content and children belong to a
			// newer tree — the next pass verifies them from its root.
			continue
		}
		v, err := rtree.OpenView(w.cfg, id, buf)
		if err != nil {
			res.corruptions++
			res.lastErr = fmt.Errorf("%w: scrub: page %d: %w", ErrCorrupt, id, err)
			continue
		}
		for k := 0; !v.Leaf() && k < v.Len(); k++ {
			w.queue = append(w.queue, v.ChildID(k))
		}
	}
	if len(w.queue) == 0 {
		w.active = false
		res.unitDone = true
	}
	return res
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

// scrub verifies up to budget reachable pages under the database's
// exclusive lock, walking unit after unit from the cursor in s.
func (e *engine) scrub(s *scrubState, budget int) scrubResult {
	e.mu.Lock()
	defer e.mu.Unlock()
	var total scrubResult
	for budget > 0 {
		r := scrubStep(e.units.Shard(s.unit).Store(), &s.walk, budget)
		total.add(r)
		if r.err != nil {
			total.err = r.err
			return total
		}
		budget -= r.pages
		if !r.unitDone {
			break
		}
		s.unit++
		s.walk = scrubWalk{}
		if s.unit >= e.units.Shards() {
			s.unit = 0
			total.passDone = true
			break
		}
	}
	return total
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
