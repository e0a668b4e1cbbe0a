package dynq

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"time"

	"dynq/internal/obs"
	"dynq/internal/pager"
	"dynq/internal/rtree"
	"dynq/internal/shard"
	"dynq/internal/wal"
)

// ErrCorrupt is the umbrella for every integrity failure detected when
// opening a file-backed database: invalid metadata, checksum mismatches,
// a malformed tree, or pages newer than the committed header (a flush
// that died after overwriting committed pages in place). All such errors
// satisfy errors.Is(err, ErrCorrupt); page-level checksum failures
// additionally satisfy errors.Is(err, pager.ErrCorruptPage).
var ErrCorrupt = errors.New("dynq: database corrupt")

// RecoveryReport describes what Open-time recovery verified and
// repaired.
type RecoveryReport struct {
	// HeaderSeq is the committed header sequence number the database
	// opened at.
	HeaderSeq uint64
	// TornHeaderRepaired is true when only one header slot was valid at
	// open — the signature of a crash during a header commit. The commit
	// issued at the end of recovery rewrites the stale slot.
	TornHeaderRepaired bool
	// PagesChecked is the number of reachable pages whose checksum,
	// epoch, and structure were verified (the whole committed tree).
	PagesChecked int
	// LeafPages and InternalPages partition PagesChecked by level.
	LeafPages, InternalPages int
	// Segments is the number of leaf entries found, cross-checked
	// against the committed metadata.
	Segments int
	// FreePages is the number of pages in the file the walk did not
	// reach: they are free, and the next allocations reuse them, lowest
	// id first.
	FreePages int
	// WALArmed is true when a write-ahead log was opened (and re-armed)
	// alongside the page file; the fields below are meaningful only then.
	WALArmed bool
	// WALCheckpointLSN is the log's committed checkpoint: every update at
	// or below it was already captured by a page commit.
	WALCheckpointLSN uint64
	// WALRecordsReplayed and WALUpdatesReplayed count the log records
	// (batches) and individual motion updates re-applied on top of the
	// committed tree.
	WALRecordsReplayed, WALUpdatesReplayed int
	// WALTornTail is true when the log ended in a torn record — a crash
	// mid-append or mid-group-commit — whose bytes were discarded. Only
	// un-acknowledged writes can be torn: a record covered by a completed
	// Sync/group-commit fsync is never part of the torn tail.
	WALTornTail bool
}

// String renders a one-line summary for logs and tools.
func (r RecoveryReport) String() string {
	s := fmt.Sprintf("seq %d: verified %d pages (%d internal, %d leaf, %d segments), %d free",
		r.HeaderSeq, r.PagesChecked, r.InternalPages, r.LeafPages, r.Segments, r.FreePages)
	if r.TornHeaderRepaired {
		s += ", repaired torn header slot"
	}
	if r.WALArmed {
		s += fmt.Sprintf(", wal: replayed %d records (%d updates) past checkpoint %d",
			r.WALRecordsReplayed, r.WALUpdatesReplayed, r.WALCheckpointLSN)
		if r.WALTornTail {
			s += ", discarded torn tail"
		}
	}
	return s
}

// RecoverOptions tune OpenFileRecoverWith; the zero value reopens the
// single file Open creates, replaying its log when one exists. Armed logs
// get the WAL buffering floor of page buffer per unit (see
// Options.BufferPages); without them the trees read their files
// unbuffered.
type RecoverOptions struct {
	// Shards is the unit count the database was created with: 0 for the
	// single file Open creates, n for the "<path>.shard<i>" set OpenSharded
	// created with Shards n. A mismatch against the files on disk is
	// refused before any file changes: objects are placed by hash mod
	// shards, so opening under a different count would misroute every
	// lookup.
	Shards int
	// WAL force-arms the conventional log sidecars, "<path>.wal" or one
	// "<path>.shard<i>.wal" per shard, created when missing and replayed
	// when not. Without it logs are auto-detected: if ANY sidecar exists,
	// every unit is armed — a database is logged as a whole or not at all.
	WAL bool
	// Maintenance runs the self-healing maintenance loop (see
	// Options.Maintenance).
	Maintenance bool
}

// OpenFileRecoverWith reopens a file-backed database of either layout,
// verifying the committed tree before handing it out: every reachable
// page's checksum and epoch are checked, the structure is validated
// against the committed metadata, and the pages the tree does not reach
// become the free pages. Corruption surfaces as a typed error wrapping
// ErrCorrupt. Every unit is verified and its log replayed independently;
// the returned report, saying what was checked and repaired, is the
// units' reports merged. The options can force-arm the logs (dqserver
// -wal) and start the maintenance loop.
//
// A path with no database files fails with an error satisfying
// errors.Is(err, os.ErrNotExist): creating a database takes the tree
// shape only Open's and OpenSharded's options carry.
func OpenFileRecoverWith(path string, opts RecoverOptions) (*DB, *RecoveryReport, error) {
	lay, units, err := recoverLayout(path, opts.Shards)
	if err != nil {
		return nil, nil, err
	}
	e, err := recoverEngine(recoverSpec{
		lay:      lay,
		units:    units,
		forceWAL: opts.WAL,
		maint:    maintFor(opts.Maintenance),
	})
	if err != nil {
		return nil, nil, err
	}
	return &DB{e}, mergeReports(e.recovery), nil
}

// recoverLayout checks the files at path against the unit count the
// caller expects, before anything is opened for writing, and returns the
// layout to recover with its unit count.
func recoverLayout(path string, shards int) (layout, int, error) {
	if path == "" {
		return layout{}, 0, fmt.Errorf("dynq: a recovering open requires a path")
	}
	if shards < 0 {
		return layout{}, 0, fmt.Errorf("dynq: RecoverOptions.Shards must be >= 0, got %d", shards)
	}
	set := shardLayout(path)
	existing, err := existingShardFiles(set)
	if err != nil {
		return layout{}, 0, err
	}
	_, serr := os.Stat(path)
	single := serr == nil
	switch {
	case shards == 0 && (single || existing == 0):
		return singleLayout(path), 1, nil // a missing file fails to open
	case shards > 0 && existing == shards:
		return set, shards, nil
	case existing > 0:
		return layout{}, 0, shardCountMismatch(path, existing, shards)
	case single:
		return layout{}, 0, shardCountMismatch(path, 0, shards)
	}
	return layout{}, 0, fmt.Errorf("dynq: no sharded database at %q (%s): %w", path, set.page(0), os.ErrNotExist)
}

// shardCountMismatch refuses a reopen under another unit count; 0 is the
// single-file layout.
func shardCountMismatch(path string, created, opened int) error {
	count := func(n int) string {
		if n == 0 {
			return "0 shards (a single file)"
		}
		return fmt.Sprintf("%d shards", n)
	}
	return fmt.Errorf("dynq: database at %q was created with %s, opened with %s: the shard count cannot change (objects are placed by hash mod shards, so a different count would misroute them); reopen with the count it was created with, or rebuild",
		path, count(created), count(opened))
}

// mergeReports folds per-unit reports into one database-level report:
// counts sum, repair flags OR, and HeaderSeq is the maximum. One unit's
// report comes back as it is.
func mergeReports(reps []*RecoveryReport) *RecoveryReport {
	if len(reps) == 1 {
		return reps[0]
	}
	out := *reps[0]
	for _, r := range reps[1:] {
		out.HeaderSeq = max(out.HeaderSeq, r.HeaderSeq)
		out.TornHeaderRepaired = out.TornHeaderRepaired || r.TornHeaderRepaired
		out.PagesChecked += r.PagesChecked
		out.LeafPages += r.LeafPages
		out.InternalPages += r.InternalPages
		out.Segments += r.Segments
		out.FreePages += r.FreePages
		out.WALArmed = out.WALArmed || r.WALArmed
		out.WALCheckpointLSN += r.WALCheckpointLSN
		out.WALRecordsReplayed += r.WALRecordsReplayed
		out.WALUpdatesReplayed += r.WALUpdatesReplayed
		out.WALTornTail = out.WALTornTail || r.WALTornTail
	}
	return &out
}

// recoverSpec is what a recovering open needs to know; RecoverOptions and
// the soaks' hooks reduce to it.
type recoverSpec struct {
	lay   layout
	units int
	// forceWAL arms a log per unit (created when missing). Without it logs
	// are auto-detected: if ANY unit's sidecar exists every unit is armed —
	// a database is logged as a whole or not at all.
	forceWAL bool
	maint    maintPolicy

	// Soak and test hooks. bufferPages gives every unit a page buffer of
	// that capacity (0: the WAL buffering floor when logs are armed, none
	// otherwise); wrapStore interposes a store (a fault.Store)
	// between unit i's tree and its verified file; walFault hooks the
	// logs' physical writes; clock, when set, replaces the maintenance
	// loop's clock and its goroutine: the caller drives every tick.
	bufferPages int
	wrapStore   func(i int, fs *pager.FileStore) pager.Store
	walFault    func(string) error
	clock       func() time.Time
}

// recoverEngine is the one recovering open: for every unit, verify the
// committed page file, restore its tree, then (when logs are armed)
// replay the unit's log past the committed applied-LSN — each unit
// independently, since no record on one depends on state held by
// another.
func recoverEngine(s recoverSpec) (_ *engine, err error) {
	n := s.units
	trees := make([]*rtree.Tree, n)
	stores := make([]pager.Store, 0, n)
	applied := make([]uint64, n)
	reps := make([]*RecoveryReport, n)
	var logs []*wal.Log
	defer func() {
		if err == nil {
			return
		}
		for _, w := range logs {
			if w != nil {
				w.Close()
			}
		}
		for _, st := range stores {
			st.Close()
		}
	}()
	var cfg rtree.Config
	for i := 0; i < n; i++ {
		fs, err := pager.OpenFileStore(s.lay.page(i))
		if err != nil {
			return nil, fmt.Errorf("dynq: open%s: %w", where(i, n), err)
		}
		var store pager.Store = fs
		if s.wrapStore != nil {
			store = s.wrapStore(i, fs)
		}
		stores = append(stores, store)
		tree, m, lsn, rep, err := recoverStoreTree(fs, store)
		if err != nil {
			return nil, fmt.Errorf("dynq: recover%s: %w", where(i, n), err)
		}
		if i == 0 {
			cfg = m.Config
		} else if m.Config != cfg {
			return nil, fmt.Errorf("%w: shard %d config %+v disagrees with shard 0 config %+v", ErrCorrupt, i, m.Config, cfg)
		}
		trees[i], applied[i], reps[i] = tree, lsn, rep
	}

	armed := s.forceWAL
	for i := 0; i < n && !armed; i++ {
		_, serr := os.Stat(s.lay.log(i))
		armed = serr == nil
	}
	bufferPages := s.bufferPages
	if armed && bufferPages == 0 {
		// Same default as a fresh open: a logged database buffers dirty
		// pages so crashes cannot tear the committed base the log replays
		// onto.
		bufferPages = defaultWALBufferPages
	}
	if bufferPages > 0 {
		for _, tree := range trees {
			if err := tree.UseBuffer(bufferPages); err != nil {
				return nil, err
			}
		}
	}
	if armed {
		logs = make([]*wal.Log, n)
		wopts := wal.Options{Fault: s.walFault}
		for i := range logs {
			if logs[i], err = replayLog(s.lay.log(i), wopts, trees[i], cfg.Dims, i, n, applied[i], reps[i]); err != nil {
				return nil, err
			}
		}
	}
	units, err := shard.NewFromShards(cfg, shard.Options{Shards: n, BufferPages: bufferPages}, trees, stores)
	if err != nil {
		return nil, err
	}
	e := &engine{units: units, dims: cfg.Dims, logs: logs, walLabel: s.lay.logs, recovery: reps}
	for _, rep := range reps {
		rep.journal()
	}
	e.maint = startMaintainer(e, s.maint, s.clock)
	return e, nil
}

// replayLog opens (or creates) unit i's log, replays every record past
// the unit's committed applied-LSN onto its tree, and returns the armed
// log. Replay happens before the database is visible, so no locking is
// needed; deletes of missing segments are tolerated (the segment may
// have died to a later record before the crash). The replayed state
// lives in memory until the next Sync checkpoints it — exactly like
// writes that never crashed. Every replayed object must place on this
// unit: a record routing elsewhere means the log was written under a
// different shard count, and replaying it would materialize objects
// where no lookup finds them.
func replayLog(path string, wopts wal.Options, tree *rtree.Tree, dims, unit, units int, appliedLSN uint64, rep *RecoveryReport) (*wal.Log, error) {
	at := where(unit, units)
	w, scan, err := wal.Open(path, wopts)
	if err != nil {
		return nil, fmt.Errorf("dynq: open wal%s: %w", at, err)
	}
	records, updates := 0, 0
	err = w.Replay(appliedLSN, func(lsn uint64, payload []byte) error {
		ups, derr := decodeUpdates(payload, dims)
		if derr != nil {
			return fmt.Errorf("%w: wal record %d%s: %v", ErrCorrupt, lsn, at, derr)
		}
		part := make([]shard.Update, len(ups))
		for i, u := range ups {
			if got := shard.Place(rtree.ObjectID(u.ID), units); got != unit {
				return fmt.Errorf("%w: wal record %d%s routes object %d to shard %d — log written under a different shard count?",
					ErrCorrupt, lsn, at, u.ID, got)
			}
			part[i] = shard.Update{ID: rtree.ObjectID(u.ID), T0: u.Segment.T0, Delete: u.Delete}
			if u.Delete {
				continue
			}
			g, serr := toSegmentDims(u.Segment, dims)
			if serr != nil {
				return fmt.Errorf("%w: wal record %d%s: %v", ErrCorrupt, lsn, at, serr)
			}
			part[i].Seg = g
		}
		b := tree.Begin()
		if aerr := b.End(shard.Apply(b, part, true)); aerr != nil {
			return fmt.Errorf("dynq: wal replay record %d%s: %w", lsn, at, aerr)
		}
		records++
		updates += len(ups)
		return nil
	})
	if err != nil {
		w.Close()
		return nil, err
	}
	rep.WALArmed = true
	rep.WALCheckpointLSN = scan.Checkpoint
	rep.WALRecordsReplayed = records
	rep.WALUpdatesReplayed = updates
	rep.WALTornTail = scan.TornTail
	if records > 0 || scan.TornTail {
		sev := obs.SeverityInfo
		if scan.TornTail {
			sev = obs.SeverityWarn
		}
		obs.DefaultJournal().Record(obs.EventWALReplay, sev,
			fmt.Sprintf("wal replay%s: %d records (%d updates) past checkpoint %d, torn tail: %v",
				at, records, updates, scan.Checkpoint, scan.TornTail),
			map[string]string{
				"unit":        strconv.Itoa(unit),
				"records":     strconv.Itoa(records),
				"updates":     strconv.Itoa(updates),
				"checkpoint":  strconv.FormatUint(scan.Checkpoint, 10),
				"torn_tail":   strconv.FormatBool(scan.TornTail),
				"last_lsn":    strconv.FormatUint(scan.LastLSN, 10),
				"applied_lsn": strconv.FormatUint(appliedLSN, 10),
			})
	}
	return w, nil
}

// recoverStoreTree is the tree-level half of recovery: it verifies the
// committed state of fs (checksums, epochs, structure), hands fs the pages
// the walk did not reach as its free pages, repairs a torn header slot,
// and restores the tree reading through treeStore — normally fs itself,
// but the soaks pass a fault.Store wrapping it. The returned applied-LSN
// is the committed metadata's WAL watermark — replay starts past it.
func recoverStoreTree(fs *pager.FileStore, treeStore pager.Store) (*rtree.Tree, rtree.Meta, uint64, *RecoveryReport, error) {
	fail := func(err error) (*rtree.Tree, rtree.Meta, uint64, *RecoveryReport, error) {
		return nil, rtree.Meta{}, 0, nil, err
	}
	// Slack 0: a page newer than the committed header means a flush
	// overwrote committed state, and recovery refuses the file.
	w, m, appliedLSN, err := walkCommitted(fs, 0)
	if err != nil {
		return fail(err)
	}
	st, err := w.Run()
	if err != nil {
		return fail(fmt.Errorf("%w: %w", ErrCorrupt, err))
	}
	rep := &RecoveryReport{
		HeaderSeq:          fs.CommittedSeq(),
		TornHeaderRepaired: !fs.BothHeaderSlotsValid(),
		PagesChecked:       len(w.Reached()),
		LeafPages:          st.LeafNodes,
		InternalPages:      st.InternalNodes,
		Segments:           st.Segments,
	}
	reached := w.Reached()
	var free []pager.PageID
	for id := pager.PageID(0); int(id) < fs.NumPages(); id++ {
		if _, ok := reached[id]; !ok {
			free = append(free, id)
		}
	}
	fs.Reuse(free)
	rep.FreePages = len(free)
	if rep.TornHeaderRepaired {
		// Re-commit so the stale header slot is rewritten and the file
		// tolerates another torn commit.
		if err := fs.Sync(); err != nil {
			return fail(fmt.Errorf("dynq: repair torn header: %w", err))
		}
	}
	tree, err := rtree.Restore(m.Config, treeStore, m.Root, m.Height, m.Size, m.ModSeq)
	if err != nil {
		return fail(err)
	}
	return tree, m, appliedLSN, rep, nil
}

// committedStore is a page file with its committed header: FileStore
// implements it and the tests' fault.Store forwards it.
type committedStore interface {
	pager.Store
	auxStore
	ReadPageEpoch(pager.PageID, []byte) (uint64, error)
	CommittedSeq() uint64
}

// walkCommitted starts the tree check (rtree.Walk) of the committed tree
// in s: recovery runs it whole, the scrub a budget at a time. A page whose
// epoch is more than slack past the committed header is a fault — a torn
// flush overwrote committed state — and one rewritten since the walk
// began is skipped with its subtree: its content belongs to a newer tree.
// Also returns the committed metadata and its applied WAL LSN.
func walkCommitted(s committedStore, slack uint64) (*rtree.Walk, rtree.Meta, uint64, error) {
	m, appliedLSN, err := decodeMeta(s.Aux())
	if err != nil {
		return nil, rtree.Meta{}, 0, err
	}
	passSeq := s.CommittedSeq()
	w := rtree.NewWalk(m, s.NumPages(), func(id pager.PageID, buf []byte) (bool, error) {
		epoch, err := s.ReadPageEpoch(id, buf)
		if err != nil {
			return false, err
		}
		if seq := s.CommittedSeq(); epoch > seq+slack {
			return false, fmt.Errorf("page %d carries epoch %d newer than committed header %d (torn flush overwrote committed state)",
				id, epoch, seq)
		}
		return epoch > passSeq, nil
	})
	return w, m, appliedLSN, nil
}

// journal leaves a queryable record of the recovery in the process-wide
// event journal, so operators see what open-time verification repaired
// without having run `dqload inspect`.
func (r RecoveryReport) journal() {
	sev := obs.SeverityInfo
	if r.TornHeaderRepaired {
		sev = obs.SeverityWarn
	}
	obs.DefaultJournal().Record(obs.EventRecovery, sev,
		"recovery-on-open completed: "+r.String(), map[string]string{
			"header_seq":           strconv.FormatUint(r.HeaderSeq, 10),
			"pages_checked":        strconv.Itoa(r.PagesChecked),
			"segments":             strconv.Itoa(r.Segments),
			"free_pages":           strconv.Itoa(r.FreePages),
			"torn_header_repaired": strconv.FormatBool(r.TornHeaderRepaired),
		})
}
