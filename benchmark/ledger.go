package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"net"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"dynq"
	"dynq/internal/cache"
	"dynq/internal/core"
	"dynq/internal/geom"
	"dynq/internal/obs"
	"dynq/internal/pager"
	"dynq/internal/rtree"
	"dynq/internal/shard"
	"dynq/internal/stats"
	"dynq/internal/wal"
	"dynq/netq"
)

// perLayer is the layer ledger: one line per module-level measurement,
// named module.metric. None is gated. A traced run reports every one of
// them. Every timing is measured on every workload: a layer that is not
// on a workload's path (the wire on fly-mem, the log on fly-disk) is
// probed on an instance the harness builds over the workload's own
// segments, so the figure says what that layer would cost there. Counts
// and shares taken from the run itself are 0 where the layer did nothing.
// The README says which end-to-end metric each should move, and where.
var perLayer = []metricSpec{
	{"netq.snapshot_rtt_us", "us", false},
	{"netq.wire_self_us", "us", false},
	{"netq.gob_roundtrip_us", "us", false},
	{"netq.resp_bytes_per_result", "B", false},
	{"netq.allocs_per_rtt", "count", false},
	{"netq.overload_rejections", "count", false},

	{"dynq.snapshot_self_us", "us", false},
	{"dynq.apply_self_us", "us", false},
	{"dynq.sync_ms", "ms", false},
	{"dynq.recover_ms", "ms", false},
	{"dynq.recovered_share", "share", true},
	{"dynq.frame_p95_ms", "ms", false},
	{"dynq.frame_p99_ms", "ms", false},
	{"dynq.frame_stall_share", "share", false},
	{"dynq.batch_p50_ms", "ms", false},
	{"dynq.batch_p95_ms", "ms", false},

	{"shard.snapshot_us", "us", false},
	{"shard.slowest_part_us", "us", false},
	{"shard.merge_self_us", "us", false},
	{"shard.reads_inflation", "ratio", false},
	{"shard.place_skew", "ratio", false},

	{"core.naive_frame_us", "us", false},
	{"core.pdq_first_frame_us", "us", false},
	{"core.pdq_subseq_frame_us", "us", false},
	{"core.npdq_frame_us", "us", false},
	{"core.knn10_us", "us", false},
	{"core.pdq_allocs_per_session", "count", false},
	{"core.pdq_reads_saved_share", "share", true},
	{"core.npdq_reads_saved_share", "share", true},
	{"core.pruned_per_frame", "count", true},
	{"core.results_per_frame", "count", false},

	{"rtree.range_search_us", "us", false},
	{"rtree.range_search_allocs", "count", false},
	{"rtree.nodes_per_search", "count", false},
	{"rtree.load_hit_us", "us", false},
	{"rtree.decode_page_us", "us", false},
	{"rtree.decode_page_allocs", "count", false},
	{"rtree.insert_us", "us", false},
	{"rtree.insert_allocs", "count", false},
	{"rtree.delete_us", "us", false},
	{"rtree.page_writes_per_insert", "count", false},
	{"rtree.height", "count", false},
	{"rtree.leaf_fill", "share", true},
	{"rtree.bulkload_s", "s", false},

	{"pager.pool_hit_us", "us", false},
	{"pager.pool_miss_us", "us", false},
	{"pager.hit_ratio", "share", true},
	{"pager.store_reads_per_frame", "count", false},
	{"pager.file_read_us", "us", false},
	{"pager.file_write_us", "us", false},
	{"pager.flush_ms", "ms", false},

	{"wal.append_us", "us", false},
	{"wal.bytes_per_update", "B", false},
	{"wal.fsync_p50_ms", "ms", false},
	{"wal.fsync_p99_ms", "ms", false},
	{"wal.fsyncs_per_batch", "count", false},
	{"wal.coalesce_ratio", "share", true},
	{"wal.checkpoint_ms", "ms", false},
	{"wal.replay_us_per_record", "us", false},

	{"geom.box_overlap_ns", "ns", false},
	{"geom.segment_box_ns", "ns", false},
	{"trajectory.overlap_interval_ns", "ns", false},

	{"cache.advance_us_per_frame", "us", false},

	{"benchmark.trace_overhead_share", "share", false},
	{"benchmark.generator_late_share", "share", false},
}

func layerUnit(name string) string {
	for _, m := range perLayer {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}

// newLedger returns every layer metric at 0; probes fill in the layers
// that are on the workload's path.
func newLedger() map[string]float64 {
	l := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		l[m.name] = 0
	}
	return l
}

// probe is the set of layer objects a ladder descends through. client
// is nil when the wire is not on the workload's path; wireCosts then
// probes it apart from the ladder.
type probe struct {
	client *netq.Client
	db     dynq.Database
	engine *shard.Engine // twin of a sharded database; tree and store are then chosen per query
	tree   *rtree.Tree
	store  pager.Store
	tr     *tracer
}

// ladderEvery is how many frames apart the page-level rungs are issued;
// the three top rungs are issued for every frame.
const ladderEvery = 10

// trees returns the trees a query on the twin descends into: one, or one
// per shard.
func (p probe) trees() (out []*rtree.Tree, stores []pager.Store) {
	if p.engine == nil {
		return []*rtree.Tree{p.tree}, []pager.Store{p.store}
	}
	for i := 0; i < p.engine.Shards(); i++ {
		out = append(out, p.engine.Shard(i).Tree)
		stores = append(stores, p.engine.Shard(i).Store())
	}
	return out, stores
}

// ladder issues each frame of ticks at every depth — netq round trip,
// DB.Snapshot, (sharded: Engine.Snapshot, then every shard's tree,
// continuing down the slowest, which is what the frame waited for),
// Tree.RangeSearch, then per visited page Tree.Load, BufferPool.GetHit
// and Store.ReadPage — and fills in the layer metrics that are
// differences between rungs. It returns how many frames the database and
// the twin answered with different result counts, which must be none.
// The database is idle while this runs.
func (p probe) ladder(l map[string]float64, ticks []*tick) (diverged int, err error) {
	var dbUs, engineUs, searchUs, loadUs []float64
	var searchCost stats.Counters
	searches := 0
	trees, stores := p.trees()
	buf := make([]byte, pager.PageSize)
	for _, tk := range ticks {
		for i, view := range tk.views {
			box, tw := tk.boxes[i], tk.times[i]
			op, parent := p.tr.nextOp(), -1
			if p.client != nil {
				at := time.Now()
				if _, err := p.client.Snapshot(view, tw.Lo, tw.Hi); err != nil {
					return 0, err
				}
				parent = p.tr.span("netq.client_snapshot", op, parent, at, time.Since(at), nil)
			}
			at := time.Now()
			rs, err := p.db.Snapshot(view, tw.Lo, tw.Hi)
			if err != nil {
				return 0, err
			}
			d := time.Since(at)
			dbUs = append(dbUs, us(d))
			parent = p.tr.span("dynq.db_snapshot", op, parent, at, d, map[string]int64{"results": int64(len(rs))})

			if p.engine != nil {
				at = time.Now()
				if _, err := p.engine.Snapshot(context.Background(), box, tw, 0); err != nil {
					return 0, err
				}
				d = time.Since(at)
				engineUs = append(engineUs, us(d))
				parent = p.tr.span("shard.engine_snapshot", op, parent, at, d, nil)
			}

			found, slowest, slowestAt := 0, 0, -1
			var slowestTook time.Duration
			for k, tree := range trees {
				before := searchCost.Snapshot()
				at = time.Now()
				ms, err := tree.RangeSearch(box, tw, rtree.SearchOptions{}, &searchCost)
				if err != nil {
					return 0, err
				}
				d = time.Since(at)
				cost := searchCost.Snapshot().Sub(before)
				id := p.tr.span("rtree.range_search", op, parent, at, d, map[string]int64{"reads": cost.Reads(), "dist_comps": cost.DistanceComps})
				found += len(ms)
				if d >= slowestTook {
					slowest, slowestAt, slowestTook = k, id, d
				}
			}
			searchUs = append(searchUs, us(slowestTook))
			searches++
			if found != len(rs) {
				diverged++
			}
			if i%ladderEvery != 0 {
				continue
			}

			tree, store, parent := trees[slowest], stores[slowest], slowestAt
			pages, err := visit(tree, box, tw, func(id pager.PageID, at time.Time, d time.Duration) {
				loadUs = append(loadUs, us(d))
				p.tr.span("rtree.load", op, parent, at, d, nil)
			})
			if err != nil {
				return 0, err
			}
			for _, id := range pages {
				at := time.Now()
				_, hit, err := tree.Pool().GetHit(id)
				if err != nil {
					return 0, err
				}
				p.tr.span("pager.pool_get", op, parent, at, time.Since(at), map[string]int64{"hit": b2i(hit)})
			}
			if _, file := store.(*pager.FileStore); !file {
				continue
			}
			for _, id := range pages {
				at := time.Now()
				if err := store.ReadPage(id, buf); err != nil {
					return 0, err
				}
				p.tr.span("pager.store_read", op, parent, at, time.Since(at), nil)
			}
		}
	}
	below := median(searchUs)
	if p.engine != nil {
		below = median(engineUs)
	}
	l["dynq.snapshot_self_us"] = median(dbUs) - below
	l["rtree.range_search_us"] = median(searchUs)
	l["rtree.nodes_per_search"] = ratio(float64(searchCost.Snapshot().Reads()), float64(searches*len(trees)))
	l["rtree.load_hit_us"] = median(loadUs)
	return diverged, nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// visit walks the pages a range search visits, loading each through
// Tree.Load and reporting the call, and returns their ids.
func visit(tree *rtree.Tree, box geom.Box, tw geom.Interval, loaded func(pager.PageID, time.Time, time.Duration)) ([]pager.PageID, error) {
	root, _, ok := tree.Root()
	if !ok {
		return nil, nil
	}
	q := rtree.QueryBox(box, tw)
	var pages []pager.PageID
	stack := []pager.PageID{root}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		at := time.Now()
		n, err := tree.Load(id, nil)
		if err != nil {
			return nil, err
		}
		loaded(id, at, time.Since(at))
		pages = append(pages, id)
		for _, c := range n.Children {
			if c.Box.Overlaps(q) {
				stack = append(stack, c.ID)
			}
		}
	}
	return pages, nil
}

// shardCosts times the shard layer on engine, which holds the same
// segments as single: the fanned-out snapshot, each shard's tree on its
// own (the slowest is what the snapshot waited for), and the nodes the
// shard trees read against the nodes one tree reads for the same frames.
func shardCosts(l map[string]float64, engine *shard.Engine, single *rtree.Tree, ticks []*tick) error {
	var engineUs, slowestUs []float64
	var parts, whole stats.Counters
	for _, tk := range ticks {
		for i, box := range tk.boxes {
			tw := tk.times[i]
			at := time.Now()
			if _, err := engine.Snapshot(context.Background(), box, tw, 0); err != nil {
				return err
			}
			engineUs = append(engineUs, us(time.Since(at)))
			var slowest time.Duration
			for k := 0; k < engine.Shards(); k++ {
				at = time.Now()
				if _, err := engine.Shard(k).Tree.RangeSearch(box, tw, rtree.SearchOptions{}, &parts); err != nil {
					return err
				}
				slowest = max(slowest, time.Since(at))
			}
			slowestUs = append(slowestUs, us(slowest))
			if _, err := single.RangeSearch(box, tw, rtree.SearchOptions{}, &whole); err != nil {
				return err
			}
		}
	}
	l["shard.snapshot_us"] = median(engineUs)
	l["shard.slowest_part_us"] = median(slowestUs)
	l["shard.merge_self_us"] = median(engineUs) - median(slowestUs)
	l["shard.reads_inflation"] = ratio(float64(parts.Snapshot().Reads()), float64(whole.Snapshot().Reads()))
	return nil
}

// placeSkew is how much fuller than the mean the fullest of the shards
// would be with these segments.
func placeSkew(segs []seg) float64 {
	var held [liveShards]int
	for _, s := range segs {
		held[shard.Place(rtree.ObjectID(s.id), liveShards)]++
	}
	most := 0
	for _, n := range held {
		most = max(most, n)
	}
	return ratio(float64(most*liveShards), float64(len(segs)))
}

// newEngine builds a sharded engine of the harness's own over segs, with
// live-wire's configuration.
func newEngine(dir string, segs []seg) (*shard.Engine, time.Duration, error) {
	engine, err := shard.New(treeConfig(), shard.Options{Shards: liveShards, BufferPages: 1024}, func(i int) (pager.Store, error) {
		return pager.CreateFileStore(filepath.Join(dir, fmt.Sprintf("engine.shard%d", i)))
	})
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := engine.BulkLoad(leafEntries(segs)); err != nil {
		engine.Close()
		return nil, 0, err
	}
	return engine, time.Since(start), nil
}

// updateCosts times the tree's write path alone: sample segments are
// deleted and inserted again one call at a time, so the tree ends up
// holding what it held. cost is the tree's counter set.
func updateCosts(l map[string]float64, tree *rtree.Tree, cost *stats.Counters, segs []seg) error {
	const samples = 256
	var insertUs, deleteUs []float64
	w0, m0 := cost.Snapshot().PageWrites, mallocs()
	for i := 0; i < len(segs); i += max(len(segs)/samples, 1) {
		s := segs[i]
		at := time.Now()
		if err := tree.Delete(rtree.ObjectID(s.id), s.t0); err != nil {
			return err
		}
		deleteUs = append(deleteUs, us(time.Since(at)))
		at = time.Now()
		if err := tree.Insert(rtree.ObjectID(s.id), s.geom()); err != nil {
			return err
		}
		insertUs = append(insertUs, us(time.Since(at)))
	}
	ops := float64(len(insertUs) + len(deleteUs))
	l["rtree.insert_us"] = median(insertUs)
	l["rtree.delete_us"] = median(deleteUs)
	l["rtree.insert_allocs"] = float64(mallocs()-m0) / ops
	l["rtree.page_writes_per_insert"] = float64(cost.Snapshot().PageWrites-w0) / ops
	return nil
}

// walCosts times the log alone, on a log of its own: records the size of
// a write batch, each appended and made durable at once, then all read
// back, then checkpointed. A workload that writes a log has already
// reported fsync and checkpoint figures from that log's instrumentation;
// those stand.
func walCosts(l map[string]float64, dir string, records int) error {
	log, err := wal.Create(filepath.Join(dir, "probe.wal"), wal.Options{})
	if err != nil {
		return err
	}
	defer log.Close()
	payload := make([]byte, batchSize*userBytes(dynq.MotionUpdate{}))
	var appendUs, fsyncMs []float64
	for i := 0; i < records; i++ {
		at := time.Now()
		lsn, err := log.Append(payload)
		if err != nil {
			return err
		}
		appendUs = append(appendUs, us(time.Since(at)))
		at = time.Now()
		if err := log.SyncNow(lsn); err != nil {
			return err
		}
		fsyncMs = append(fsyncMs, ms(time.Since(at)))
	}
	at := time.Now()
	if err := log.Replay(0, func(uint64, []byte) error { return nil }); err != nil {
		return err
	}
	l["wal.replay_us_per_record"] = us(time.Since(at)) / float64(records)
	at = time.Now()
	if err := log.Checkpoint(log.LastLSN()); err != nil {
		return err
	}
	checkpoint := ms(time.Since(at))
	l["wal.append_us"] = median(appendUs)
	if l["wal.fsync_p50_ms"] == 0 {
		l["wal.fsync_p50_ms"] = median(fsyncMs)
		l["wal.fsync_p99_ms"] = quantile(fsyncMs, 0.99)
		l["wal.checkpoint_ms"] = checkpoint
	}
	return nil
}

// recoverCost writes segs to a database file, closes it cleanly and times
// reopening it through recovery, which verifies every page: what a
// workload that takes no crash image would pay to come back.
func recoverCost(l map[string]float64, dir string, segs []seg) error {
	path := filepath.Join(dir, "clean.pages")
	db, err := dynq.Open(dynq.Options{DualTimeAxes: true, Path: path})
	if err != nil {
		return err
	}
	if err := db.BulkLoadUpdates(inserts(segs)); err != nil {
		db.Close()
		return err
	}
	if err := db.Sync(); err != nil {
		db.Close()
		return err
	}
	if err := db.Close(); err != nil {
		return err
	}
	at := time.Now()
	db, _, err = dynq.OpenFileRecoverWith(path, dynq.RecoverOptions{})
	if err != nil {
		return err
	}
	l["dynq.recover_ms"] = ms(time.Since(at))
	l["dynq.recovered_share"] = ratio(float64(db.Len()), float64(len(segs)))
	return db.Close()
}

// coreCosts times the three query engines and KNN directly on tree, with
// private counters, over the same ticks, and the client view cache fed
// with the predictive deltas.
func coreCosts(l map[string]float64, tree *rtree.Tree, ticks []*tick) error {
	var cn, cp, cq, ck stats.Counters
	var naiveUs, firstUs, subseqUs, npdqUs, knnUs, cacheUs []float64
	var sessionAllocs uint64
	frames := 0
	for _, tk := range ticks {
		nv := core.NewNaive(tree, rtree.SearchOptions{}, &cn)
		for i := range tk.boxes {
			at := time.Now()
			if _, err := nv.Snapshot(tk.boxes[i], tk.times[i]); err != nil {
				return err
			}
			naiveUs = append(naiveUs, us(time.Since(at)))
			frames++
		}

		view := cache.New[core.Result]()
		m0 := mallocs()
		var session *core.PDQ
		for i := range tk.boxes {
			at := time.Now()
			if i == 0 {
				var err error
				if session, err = core.NewPDQ(tree, tk.traj, core.PDQOptions{}, &cp); err != nil {
					return err
				}
			}
			rs, err := session.Drain(tk.times[i].Lo, tk.times[i].Hi)
			if err != nil {
				return err
			}
			d := us(time.Since(at))
			if i == 0 {
				firstUs = append(firstUs, d)
			} else {
				subseqUs = append(subseqUs, d)
			}
			at = time.Now()
			for _, r := range rs {
				view.Put(uint64(r.ID), r, r.Disappear)
			}
			view.Advance(tk.times[i].Hi)
			cacheUs = append(cacheUs, us(time.Since(at)))
		}
		session.Close()
		sessionAllocs += mallocs() - m0

		nq := core.NewNPDQ(tree, core.NPDQOptions{}, &cq)
		for i := range tk.boxes {
			at := time.Now()
			if _, err := nq.Next(tk.boxes[i], tk.times[i]); err != nil {
				return err
			}
			npdqUs = append(npdqUs, us(time.Since(at)))
		}

		at := time.Now()
		if _, err := core.KNN(tree, tk.boxes[0].Center(), tk.times[0].Lo, 10, &ck); err != nil {
			return err
		}
		knnUs = append(knnUs, us(time.Since(at)))
	}
	n, p, q := cn.Snapshot(), cp.Snapshot(), cq.Snapshot()
	l["core.naive_frame_us"] = median(naiveUs)
	l["core.pdq_first_frame_us"] = median(firstUs)
	l["core.pdq_subseq_frame_us"] = median(subseqUs)
	l["core.npdq_frame_us"] = median(npdqUs)
	l["core.knn10_us"] = median(knnUs)
	// The cache's own work cost allocations too; they are few next to a
	// session's and stay in, as a viewer pays for both.
	l["core.pdq_allocs_per_session"] = ratio(float64(sessionAllocs), float64(len(ticks)))
	l["core.pdq_reads_saved_share"] = 1 - ratio(float64(p.Reads()), float64(n.Reads()))
	l["core.npdq_reads_saved_share"] = 1 - ratio(float64(q.Reads()), float64(n.Reads()))
	l["core.pruned_per_frame"] = ratio(float64(p.PrunedNodes+q.PrunedNodes), float64(2*frames))
	l["core.results_per_frame"] = ratio(float64(n.Results), float64(frames))
	l["cache.advance_us_per_frame"] = median(cacheUs)
	return nil
}

// microLoops is how often a nanosecond-scale primitive is repeated per
// measurement.
const microLoops = 200_000

// sink receives what the timed micro loops compute, so the compiler
// cannot remove them.
var sink int

// nodeCosts times the primitives under a node visit on tree's own pages:
// decoding a page, the geometric predicates on its entries, and search
// allocations.
func nodeCosts(l map[string]float64, tree *rtree.Tree, ticks []*tick) error {
	tk := ticks[0]
	cfg := tree.Config()
	pages, err := visit(tree, tk.boxes[0], tk.times[0], func(pager.PageID, time.Time, time.Duration) {})
	if err != nil || len(pages) == 0 {
		return err
	}
	var leaf *rtree.Node
	for _, id := range pages {
		if n, err := tree.Load(id, nil); err != nil {
			return err
		} else if n.Leaf() && (leaf == nil || n.Len() > leaf.Len()) {
			leaf = n
		}
	}
	page, err := tree.Pool().Get(leaf.ID)
	if err != nil {
		return err
	}
	const decodes = 2000
	m0 := mallocs()
	at := time.Now()
	for i := 0; i < decodes; i++ {
		if _, err := rtree.DecodePage(cfg, leaf.ID, page); err != nil {
			return err
		}
	}
	l["rtree.decode_page_us"] = us(time.Since(at)) / decodes
	l["rtree.decode_page_allocs"] = float64(mallocs()-m0) / decodes

	searches := 0
	m0 = mallocs()
	for _, tk := range ticks {
		for i := range tk.boxes {
			if _, err := tree.RangeSearch(tk.boxes[i], tk.times[i], rtree.SearchOptions{}, nil); err != nil {
				return err
			}
			searches++
		}
	}
	l["rtree.range_search_allocs"] = ratio(float64(mallocs()-m0), float64(searches))

	q := rtree.QueryBox(tk.boxes[0], tk.times[0])
	exact := append(tk.boxes[0].Clone(), tk.times[0])
	boxes := make([]geom.Box, len(leaf.Entries))
	for i, e := range leaf.Entries {
		boxes[i] = e.Box(cfg.Dims)
	}
	hits := 0
	at = time.Now()
	for i := 0; i < microLoops; i++ {
		if boxes[i%len(boxes)].Overlaps(q) {
			hits++
		}
	}
	l["geom.box_overlap_ns"] = float64(time.Since(at).Nanoseconds()) / microLoops
	at = time.Now()
	for i := 0; i < microLoops; i++ {
		if !leaf.Entries[i%len(leaf.Entries)].Seg.OverlapTimeInBox(exact).Empty() {
			hits++
		}
	}
	l["geom.segment_box_ns"] = float64(time.Since(at).Nanoseconds()) / microLoops
	var set geom.IntervalSet
	at = time.Now()
	for i := 0; i < microLoops; i++ {
		set.Reset()
		tk.traj.OverlapSegment(leaf.Entries[i%len(leaf.Entries)].Seg, &set)
	}
	l["trajectory.overlap_interval_ns"] = float64(time.Since(at).Nanoseconds()) / microLoops
	sink += hits
	return nil
}

// poolCosts asks tree's buffer pool for every page twice, sorting the
// calls into hits and misses, then reads and rewrites pages on the store
// itself. It runs last: it empties the pool.
func poolCosts(l map[string]float64, tree *rtree.Tree, store pager.Store) error {
	root, _, ok := tree.Root()
	if !ok {
		return nil
	}
	var all []pager.PageID
	stack := []pager.PageID{root}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		all = append(all, id)
		n, err := tree.Load(id, nil)
		if err != nil {
			return err
		}
		for _, c := range n.Children {
			stack = append(stack, c.ID)
		}
	}
	pool := tree.Pool()
	if err := pool.Invalidate(); err != nil {
		return err
	}
	// From an empty pool the first call for a page misses and the second
	// hits, whatever the pool's capacity.
	var hitUs, missUs []float64
	for _, id := range all {
		for touch := 0; touch < 2; touch++ {
			at := time.Now()
			_, hit, err := pool.GetHit(id)
			if err != nil {
				return err
			}
			if d := us(time.Since(at)); hit {
				hitUs = append(hitUs, d)
			} else {
				missUs = append(missUs, d)
			}
		}
	}
	l["pager.pool_hit_us"] = median(hitUs)
	l["pager.pool_miss_us"] = median(missUs)
	fs, ok := store.(*pager.FileStore)
	if !ok {
		return nil
	}
	if err := pool.Flush(); err != nil {
		return err
	}
	if len(all) > 512 {
		all = all[:512]
	}
	var readUs, writeUs []float64
	buf := make([]byte, pager.PageSize)
	for _, id := range all {
		at := time.Now()
		if err := fs.ReadPage(id, buf); err != nil {
			return err
		}
		readUs = append(readUs, us(time.Since(at)))
		at = time.Now()
		if err := fs.WritePage(id, buf); err != nil {
			return err
		}
		writeUs = append(writeUs, us(time.Since(at)))
	}
	l["pager.file_read_us"] = median(readUs)
	l["pager.file_write_us"] = median(writeUs)
	return nil
}

// endpoint is a netq server on loopback in front of a database.
type endpoint struct {
	srv  *netq.Server
	ln   net.Listener
	done chan error
}

func serve(db dynq.Database) (*endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ep := &endpoint{srv: netq.NewServer(db), ln: ln, done: make(chan error, 1)}
	go func() { ep.done <- ep.srv.Serve(ln) }()
	return ep, nil
}

func (ep *endpoint) dial() (*netq.Client, error) { return netq.Dial(ep.ln.Addr().String()) }

// close stops accepting, waits for Serve to return and ends the
// connections' goroutines.
func (ep *endpoint) close() {
	ep.ln.Close()
	<-ep.done
	ep.srv.Close()
}

// wireCosts measures the wire in front of db: each frame of ticks as a
// round trip over c and as a direct call, what a round trip allocates in
// this process (client and server both), and the codec alone on a
// response.
func wireCosts(l map[string]float64, c *netq.Client, db dynq.Database, ticks []*tick) error {
	var rttUs, directUs []float64
	for _, tk := range ticks {
		for i, view := range tk.views {
			at := time.Now()
			if _, err := c.Snapshot(view, tk.times[i].Lo, tk.times[i].Hi); err != nil {
				return err
			}
			rttUs = append(rttUs, us(time.Since(at)))
			at = time.Now()
			if _, err := db.Snapshot(view, tk.times[i].Lo, tk.times[i].Hi); err != nil {
				return err
			}
			directUs = append(directUs, us(time.Since(at)))
		}
	}
	l["netq.snapshot_rtt_us"] = median(rttUs)
	l["netq.wire_self_us"] = median(rttUs) - median(directUs)

	const trips = 200
	tk := ticks[0]
	var typical []dynq.Result
	m0 := mallocs()
	for i := 0; i < trips; i++ {
		var err error
		if typical, err = c.Snapshot(tk.views[0], tk.times[0].Lo, tk.times[0].Hi); err != nil {
			return err
		}
	}
	l["netq.allocs_per_rtt"] = float64(mallocs()-m0) / trips
	return gobCosts(l, typical)
}

// gobCosts times the wire codec alone: one response of the typical size,
// encoded and decoded over a persistent gob stream as a connection does.
func gobCosts(l map[string]float64, results []dynq.Result) error {
	var pipe bytes.Buffer
	enc, dec := gob.NewEncoder(&pipe), gob.NewDecoder(&pipe)
	resp := netq.Response{Results: results}
	var back netq.Response
	// The first exchange carries the type description; a connection pays
	// that once.
	if err := enc.Encode(&resp); err != nil {
		return err
	}
	if err := dec.Decode(&back); err != nil {
		return err
	}
	const trips = 500
	var size int
	at := time.Now()
	for i := 0; i < trips; i++ {
		if err := enc.Encode(&resp); err != nil {
			return err
		}
		size = pipe.Len()
		back = netq.Response{}
		if err := dec.Decode(&back); err != nil {
			return err
		}
	}
	l["netq.gob_roundtrip_us"] = us(time.Since(at)) / trips
	l["netq.resp_bytes_per_result"] = ratio(float64(size), float64(len(results)))
	return nil
}

// runStats fills in the metrics that come from the recorded rounds
// themselves and from the database's own counters. walBefore is the log
// telemetry when the recorded rounds began.
func runStats(l map[string]float64, rec *recorder, db database, walBefore obs.WALTelemetry) error {
	var all []float64
	for s := range rec.raw.frameMs {
		all = append(all, rec.raw.frameMs[s]...)
	}
	l["dynq.frame_p95_ms"] = quantile(all, 0.95)
	l["dynq.frame_p99_ms"] = quantile(all, 0.99)
	l["dynq.batch_p50_ms"] = median(rec.raw.batchMs)
	l["dynq.batch_p95_ms"] = quantile(rec.raw.batchMs, 0.95)
	l["dynq.sync_ms"] = median(rec.syncMs)
	l["pager.hit_ratio"] = ratio(float64(rec.cost.BufferHits), float64(rec.cost.Reads()))
	l["pager.store_reads_per_frame"] = ratio(float64(rec.cost.Reads()-rec.cost.BufferHits), float64(rec.frames))
	st, err := db.Stats()
	if err != nil {
		return err
	}
	l["rtree.height"] = float64(st.Height)
	l["rtree.leaf_fill"] = st.AvgLeafFill
	if w, ok := db.WALTelemetry(nil); ok {
		updates := 0
		for _, r := range rec.rounds {
			updates += r.updates
		}
		l["wal.bytes_per_update"] = ratio(float64(w.AppendedBytes-walBefore.AppendedBytes), float64(updates))
		l["wal.fsyncs_per_batch"] = ratio(float64(w.Fsyncs-walBefore.Fsyncs), float64(len(rec.raw.batchMs)))
		l["wal.fsync_p50_ms"] = w.FsyncLatency.P50 * 1000
		l["wal.fsync_p99_ms"] = w.FsyncLatency.P99 * 1000
		l["wal.coalesce_ratio"] = w.CoalesceRatio
		l["wal.checkpoint_ms"] = w.CheckpointDuration.P50 * 1000
	}
	return nil
}

// dominant names the layers with the most self time among the spans, for
// the human-readable report.
func dominant(spans []spanRec) string {
	type kv struct {
		name string
		d    time.Duration
	}
	var rows []kv
	for name, d := range selfTimes(spans) {
		if !strings.HasPrefix(name, "tick.") {
			rows = append(rows, kv{name, d})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].d > rows[j].d })
	var b strings.Builder
	for i, r := range rows {
		if i == 4 {
			break
		}
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(r.name + " " + r.d.Round(time.Millisecond).String())
	}
	return b.String()
}
