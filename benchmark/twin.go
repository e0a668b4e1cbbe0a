package main

import (
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dynq"
	"dynq/internal/pager"
	"dynq/internal/rtree"
	"dynq/internal/stats"
	"dynq/internal/wal"
)

// twin is a tree (and, for a logged workload, a log) that the harness
// builds and updates itself, through the exported functions of rtree,
// pager and wal, in step with the database under test. The database's
// own tree is not reachable from outside, so the layers below the public
// surface are timed here: same configuration, same bulk load, same
// updates in the same order, hence the same tree.
type twin struct {
	store    pager.Store
	tree     *rtree.Tree
	cost     stats.Counters
	log      *wal.Log
	bulkload time.Duration

	selfUs  []float64 // per traced batch: the database's latency minus the twin's time in tree and log
	flushMs []float64 // per scripted checkpoint
}

func treeConfig() rtree.Config {
	cfg := rtree.DefaultConfig()
	cfg.DualTime = true
	return cfg
}

func leafEntries(segs []seg) []rtree.LeafEntry {
	out := make([]rtree.LeafEntry, len(segs))
	for i, s := range segs {
		out[i] = rtree.LeafEntry{ID: rtree.ObjectID(s.id), Seg: s.geom()}
	}
	return out
}

// newTwin mirrors what dynq.Open and BulkLoadUpdates do with the
// workload's options: the same store kind, buffer capacity and log.
func newTwin(spec serialSpec, dir string, base []seg) (*twin, error) {
	dir = filepath.Join(dir, "twin")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	opts := spec.options(dir)
	t := &twin{store: pager.NewMemStore()}
	if opts.Path != "" {
		fs, err := pager.CreateFileStore(opts.Path)
		if err != nil {
			return nil, err
		}
		t.store = fs
	}
	start := time.Now()
	tree, err := rtree.BulkLoad(treeConfig(), t.store, leafEntries(base))
	if err != nil {
		t.store.Close()
		return nil, err
	}
	t.bulkload = time.Since(start)
	t.tree = tree
	buffer := opts.BufferPages
	if opts.WALPath != "" {
		if buffer == 0 {
			buffer = 1024 // dynq's default for a logged database
		}
		if t.log, err = wal.Create(opts.WALPath, wal.Options{}); err != nil {
			t.store.Close()
			return nil, err
		}
	}
	if buffer > 0 {
		if err := tree.UseBuffer(buffer); err != nil {
			t.close()
			return nil, err
		}
	}
	tree.SetCounters(&t.cost)
	return t, nil
}

func (t *twin) close() {
	if t.log != nil {
		t.log.Close()
	}
	t.store.Close()
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// replay applies one batch the way the database's write path does —
// append to the log, apply to the tree, wait for the commit — and, when
// tracing, records each layer's call as a child of the batch's span. It
// returns the time spent in those layers.
func (t *twin) replay(ups []dynq.MotionUpdate, tr *tracer, parent int) (time.Duration, error) {
	var lsn uint64
	var logged time.Duration
	if t.log != nil {
		size := 0
		for _, u := range ups {
			size += userBytes(u)
		}
		payload := make([]byte, size)
		at := time.Now()
		var err error
		if lsn, err = t.log.Append(payload); err != nil {
			return 0, err
		}
		logged = time.Since(at)
		if tr != nil {
			tr.span("wal.append", tr.spans[parent].OpID, parent, at, logged, map[string]int64{"bytes": int64(size)})
		}
	}
	w0 := t.cost.Snapshot().PageWrites
	at := time.Now()
	for _, u := range ups {
		var err error
		if u.Delete {
			err = t.tree.Delete(rtree.ObjectID(u.ID), u.Segment.T0)
		} else {
			err = t.tree.Insert(rtree.ObjectID(u.ID), segOf(u.ID, u.Segment).geom())
		}
		if err != nil {
			return 0, err
		}
	}
	applied := time.Since(at)
	if tr != nil {
		writes := t.cost.Snapshot().PageWrites - w0
		tr.span("rtree.apply", tr.spans[parent].OpID, parent, at, applied, map[string]int64{"ops": int64(len(ups)), "page_writes": writes})
	}
	if t.log != nil {
		at = time.Now()
		if err := t.log.Sync(lsn); err != nil {
			return 0, err
		}
		d := time.Since(at)
		logged += d
		if tr != nil {
			tr.span("wal.sync", tr.spans[parent].OpID, parent, at, d, nil)
		}
	}
	return applied + logged, nil
}

// flush is the twin's side of a scripted Sync: write back dirty pages,
// commit, checkpoint the log.
func (t *twin) flush() error {
	at := time.Now()
	if err := t.tree.Pool().Flush(); err != nil {
		return err
	}
	t.flushMs = append(t.flushMs, ms(time.Since(at)))
	if err := t.store.Sync(); err != nil {
		return err
	}
	if t.log != nil {
		return t.log.Checkpoint(t.log.LastLSN())
	}
	return nil
}
