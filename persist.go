package dynq

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"time"

	"dynq/internal/obs"
	"dynq/internal/pager"
	"dynq/internal/rtree"
)

// The database's shape metadata is stored in the page file's header so a
// file-backed database can be reopened:
//
//	offset 0  1 byte  format version (2)
//	offset 1  1 byte  spatial dimensionality
//	offset 2  1 byte  dual-time flag
//	offset 3  1 byte  split policy (2 = R*-axis; see below)
//	offset 4  4 bytes root page id
//	offset 8  4 bytes height
//	offset 12 8 bytes segment count
//	offset 20 8 bytes modification sequence
//	offset 28 8 bytes applied WAL LSN (version 2; every update with an
//	                  LSN at or below it is captured by the page commit,
//	                  so recovery replays only records above it)
//
// Version 1 files (28 bytes, no LSN field) remain readable: they predate
// the WAL, so their applied LSN is implicitly 0. Every tree splits with
// the R*-axis split and writes split byte metaSplitRStar (2). Files whose
// byte names the quadratic (0) or linear (1) split, as earlier builds
// wrote, still open: the split only shapes nodes yet to be written, so
// they go on with the R*-axis split and write 2 at their next commit. A
// byte above 2 is corruption.
const (
	metaVersion1 = 1
	metaVersion  = 2
	metaLenV1    = 28
	metaLen      = 36

	metaSplitRStar = 2
)

// maxMetaSegments bounds the plausible persisted segment count; a page
// file can hold at most NumPages * leaf fanout segments and PageIDs are
// 32-bit, so anything near 2^40 is corruption, not data.
const maxMetaSegments = 1 << 40

func encodeMeta(m rtree.Meta, appliedLSN uint64) []byte {
	buf := make([]byte, metaLen)
	buf[0] = metaVersion
	buf[1] = byte(m.Config.Dims)
	if m.Config.DualTime {
		buf[2] = 1
	}
	buf[3] = metaSplitRStar
	binary.LittleEndian.PutUint32(buf[4:], uint32(m.Root))
	binary.LittleEndian.PutUint32(buf[8:], uint32(m.Height))
	binary.LittleEndian.PutUint64(buf[12:], uint64(m.Size))
	binary.LittleEndian.PutUint64(buf[20:], m.ModSeq)
	binary.LittleEndian.PutUint64(buf[28:], appliedLSN)
	return buf
}

// decodeMeta parses and VALIDATES persisted metadata. Every field is
// range-checked and cross-checked before an rtree.Config is built from
// it, so corrupt bytes surface as a descriptive error wrapping
// ErrCorrupt instead of a bogus tree shape. The second return is the
// applied WAL LSN (0 for version-1 files, which predate the WAL).
func decodeMeta(buf []byte) (rtree.Meta, uint64, error) {
	if len(buf) == 0 {
		return rtree.Meta{}, 0, fmt.Errorf("%w: page file carries no database metadata", ErrCorrupt)
	}
	if len(buf) < metaLenV1 {
		return rtree.Meta{}, 0, fmt.Errorf("%w: metadata truncated (%d bytes, want %d)", ErrCorrupt, len(buf), metaLenV1)
	}
	var appliedLSN uint64
	switch buf[0] {
	case metaVersion1:
	case metaVersion:
		if len(buf) < metaLen {
			return rtree.Meta{}, 0, fmt.Errorf("%w: metadata truncated (%d bytes, version 2 wants %d)", ErrCorrupt, len(buf), metaLen)
		}
		appliedLSN = binary.LittleEndian.Uint64(buf[28:])
	default:
		return rtree.Meta{}, 0, fmt.Errorf("%w: unsupported metadata version %d (want %d or %d)", ErrCorrupt, buf[0], metaVersion1, metaVersion)
	}
	dims := int(buf[1])
	if dims < 1 || dims > 8 {
		return rtree.Meta{}, 0, fmt.Errorf("%w: spatial dimensionality %d outside [1,8]", ErrCorrupt, dims)
	}
	if buf[2] > 1 {
		return rtree.Meta{}, 0, fmt.Errorf("%w: dual-time flag byte %d is not 0 or 1", ErrCorrupt, buf[2])
	}
	if buf[3] > metaSplitRStar {
		return rtree.Meta{}, 0, fmt.Errorf("%w: unknown split policy byte %d", ErrCorrupt, buf[3])
	}
	root := pager.PageID(binary.LittleEndian.Uint32(buf[4:]))
	height := binary.LittleEndian.Uint32(buf[8:])
	size := binary.LittleEndian.Uint64(buf[12:])
	if height > 255 {
		return rtree.Meta{}, 0, fmt.Errorf("%w: index height %d implausible (node levels are 8-bit)", ErrCorrupt, height)
	}
	if size > maxMetaSegments {
		return rtree.Meta{}, 0, fmt.Errorf("%w: segment count %d implausible", ErrCorrupt, size)
	}
	if (root == pager.InvalidPage) != (height == 0) {
		return rtree.Meta{}, 0, fmt.Errorf("%w: root page %d inconsistent with height %d", ErrCorrupt, root, height)
	}
	if height == 0 && size != 0 {
		return rtree.Meta{}, 0, fmt.Errorf("%w: empty index (height 0) claims %d segments", ErrCorrupt, size)
	}
	cfg := rtree.DefaultConfig()
	cfg.Dims = dims
	cfg.DualTime = buf[2] == 1
	return rtree.Meta{
		Root:   root,
		Height: int(height),
		Size:   int(size),
		ModSeq: binary.LittleEndian.Uint64(buf[20:]),
		Config: cfg,
	}, appliedLSN, nil
}

// auxStore is the optional store capability for persisting metadata in
// the page file header. FileStore implements it directly; the tests'
// fault.Store forwards to its inner store.
type auxStore interface {
	SetAux(data []byte) error
	Aux() []byte
}

// Sync persists every unit and checkpoints its log, unit by unit: flush
// the unit's dirty pages, commit its metadata carrying its log's highest
// applied LSN (atomic dual-header commit, so a crash mid-Sync leaves the
// previous committed state intact), then truncate the log to that LSN —
// recovery replays only what the page commit missed. For a memory-backed
// database it is a no-op. The database lock is held exclusively; writers
// hold it shared, which is exactly Checkpoint's no-concurrent-Append
// precondition.
//
// A crash between unit i's commit and unit j's leaves unit j's log
// longer than necessary, never inconsistent: each unit's metadata and
// log agree pairwise, and recovery replays each pair independently.
//
// Persistent storage failures eventually degrade the database to
// read-only (see Degraded) — and with logs armed, a single failed stage
// degrades immediately: the log would otherwise grow unboundedly while
// silent retries mask a checkpoint that can never advance.
func (e *engine) Sync() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.health.gate(); err != nil {
		return err
	}
	return e.checkpointLocked(nil)
}

// checkpointLocked flushes, commits and checkpoints the listed units (nil
// means all) under the already-held exclusive lock, without the
// degraded-mode gate: Sync and the auto-checkpoint policy gate first,
// the recovery probe must commit exactly while the database is degraded.
func (e *engine) checkpointLocked(units []int) error {
	if units == nil {
		for i := 0; i < e.units.Shards(); i++ {
			units = append(units, i)
		}
	}
	start := time.Now()
	var truncated int64
	for _, i := range units {
		n, err := e.checkpointUnit(i)
		if err != nil {
			return err
		}
		truncated += n
	}
	if e.logs != nil {
		obs.DefaultJournal().Record(obs.EventCheckpoint, obs.SeverityInfo,
			"wal checkpoint committed; log truncated",
			map[string]string{
				"logs":            strconv.Itoa(len(units)),
				"truncated_bytes": strconv.FormatInt(truncated, 10),
				"duration":        time.Since(start).String(),
			})
	}
	return e.health.note(nil)
}

// checkpointUnit is the flush → commit → checkpoint sequence for ONE unit,
// returning the log bytes truncated.
func (e *engine) checkpointUnit(i int) (int64, error) {
	sh := e.units.Shard(i)
	var lsn uint64
	if e.logs != nil {
		lsn = e.logs[i].LastLSN()
	}
	if err := sh.Tree.Pool().Flush(); err != nil {
		return 0, e.syncFailure(i, "flush pages", err)
	}
	if s, ok := sh.Store().(auxStore); ok {
		if err := s.SetAux(encodeMeta(sh.Tree.Meta(), lsn)); err != nil {
			return 0, e.syncFailure(i, "stage metadata", err)
		}
	}
	if err := sh.Store().Sync(); err != nil {
		return 0, e.syncFailure(i, "commit", err)
	}
	if e.logs == nil {
		return 0, nil
	}
	truncated := e.logs[i].LiveBytes()
	if err := e.logs[i].Checkpoint(lsn); err != nil {
		return 0, e.syncFailure(i, "wal checkpoint", err)
	}
	return truncated, nil
}

// syncFailure classifies a failed checkpoint stage. Without logs it feeds
// the ordinary consecutive-failure degradation counter. With logs armed
// it degrades the database to read-only IMMEDIATELY and journals the
// event: writers keep appending to a log whose checkpoint cannot
// advance, so "retry later" silently trades durability for an unbounded
// log.
func (e *engine) syncFailure(unit int, stage string, cause error) error {
	err := wrapDiskFull(fmt.Errorf("dynq: %s%s: %w", stage, where(unit, e.units.Shards()), cause))
	if e.logs == nil {
		return e.health.note(err)
	}
	obs.DefaultJournal().Record(obs.EventSyncFailure, obs.SeverityError,
		"checkpoint sync failed with WAL armed; degrading to read-only",
		map[string]string{"unit": strconv.Itoa(unit), "stage": stage, "error": cause.Error()})
	e.health.set(true)
	return err
}
