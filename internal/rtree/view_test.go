package rtree

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"dynq/internal/geom"
	"dynq/internal/pager"
	"dynq/internal/stats"
)

// churnedTree grows a tree the ways a live index grows: a bulk load, then
// inserts (splitting nodes) interleaved with deletes (dissolving them).
func churnedTree(t testing.TB, cfg Config, seed int64) *Tree {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	entries := make([]LeafEntry, 3000)
	for i := range entries {
		entries[i] = LeafEntry{ID: ObjectID(i), Seg: QuantizeSegment(randSegment(r))}
	}
	tree, err := BulkLoad(cfg, pager.NewMemStore(), entries)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1500; i++ {
		e := LeafEntry{ID: ObjectID(len(entries)), Seg: QuantizeSegment(randSegment(r))}
		if err := tree.Insert(e.ID, e.Seg); err != nil {
			t.Fatal(err)
		}
		entries = append(entries, e)
		if i%2 == 0 {
			k := r.Intn(len(entries))
			if err := tree.Delete(entries[k].ID, entries[k].Seg.T.Lo); err != nil {
				t.Fatal(err)
			}
			entries[k] = entries[len(entries)-1]
			entries = entries[:len(entries)-1]
		}
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	return tree
}

// refRangeSearch is the range search as it was before node views: every
// visited node materialised through Tree.Load.
func refRangeSearch(t *Tree, id pager.PageID, q, qst geom.Box, opts SearchOptions, c *stats.Counters, out *[]Match) error {
	full := func() bool { return opts.Limit > 0 && len(*out) >= opts.Limit }
	n, err := t.Load(id, c)
	if err != nil {
		return err
	}
	for _, e := range n.Entries {
		if full() {
			return nil
		}
		c.AddDistanceComps(1)
		if ov := e.Seg.OverlapTimeInBox(qst); !ov.Empty() {
			*out = append(*out, Match{ID: e.ID, Seg: e.Seg, Overlap: ov})
		}
	}
	for _, ch := range n.Children {
		if full() {
			return nil
		}
		c.AddDistanceComps(1)
		if ch.Box.Overlaps(q) {
			if err := refRangeSearch(t, ch.ID, q, qst, opts, c, out); err != nil {
				return err
			}
		}
	}
	return nil
}

// The view-based search returns the same matches in the same order at the
// same cost as the Load-based reference, in both layouts, with and without
// a limit.
func TestRangeSearchMatchesLoadReference(t *testing.T) {
	for _, dual := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.DualTime = dual
		tree := churnedTree(t, cfg, 11)
		root, _, _ := tree.Root()
		r := rand.New(rand.NewSource(12))
		for i := 0; i < 200; i++ {
			x, y, t0 := r.Float64()*90, r.Float64()*90, r.Float64()*99
			spatial := geom.Box{{Lo: x, Hi: x + 10}, {Lo: y, Hi: y + 10}}
			tw := geom.Interval{Lo: t0, Hi: t0 + 1}
			var opts SearchOptions
			if i%5 == 4 {
				opts.Limit = 1 + r.Intn(20)
			}
			var gc, wc stats.Counters
			got, err := tree.RangeSearch(spatial, tw, opts, &gc)
			if err != nil {
				t.Fatal(err)
			}
			var want []Match
			if err := refRangeSearch(tree, root, QueryBox(spatial, tw), append(spatial.Clone(), tw), opts, &wc, &want); err != nil {
				t.Fatal(err)
			}
			wc.AddResults(len(want))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("dual=%v query %d (%+v): %d matches, reference %d, or order differs", dual, i, opts, len(got), len(want))
			}
			if gc.Snapshot() != wc.Snapshot() {
				t.Fatalf("dual=%v query %d (%+v): cost %+v, reference %+v", dual, i, opts, gc.Snapshot(), wc.Snapshot())
			}
		}
	}
}

// A root split whose new root cannot be allocated or written is a storage
// failure like any other: Insert returns it, nothing panics.
func TestRootGrowFailureReturnsError(t *testing.T) {
	cfg := DefaultConfig()
	arm := map[string]func(*pager.FaultStore){
		// The overflowing insert allocates the leaf's sibling, then the root.
		"alloc": func(fs *pager.FaultStore) { fs.ArmAllocs(2) },
		// It writes the leaf, the sibling, then the root.
		"write":   func(fs *pager.FaultStore) { fs.ArmWrites(3) },
		"nospace": func(fs *pager.FaultStore) { fs.ArmNoSpace(4, true) },
	}
	for name, arm := range arm {
		t.Run(name, func(t *testing.T) {
			fs := pager.NewFaultStore(pager.NewMemStore())
			tree, err := New(cfg, fs)
			if err != nil {
				t.Fatal(err)
			}
			r := rand.New(rand.NewSource(3))
			for i := 0; i < cfg.MaxLeafEntries(); i++ {
				if err := tree.Insert(ObjectID(i), randSegment(r)); err != nil {
					t.Fatal(err)
				}
			}
			arm(fs)
			err = tree.Insert(ObjectID(cfg.MaxLeafEntries()), randSegment(r))
			if err == nil {
				t.Fatal("Insert succeeded although the new root could not be stored")
			}
			if !errors.Is(err, pager.ErrInjected) && !errors.Is(err, pager.ErrNoSpace) {
				t.Fatalf("Insert error %v does not wrap the store's", err)
			}
			if tree.Height() != 1 {
				t.Errorf("height %d after a failed root grow, want 1", tree.Height())
			}
		})
	}
}

// A deletion that frees a node page tells listeners to re-seed; one that
// only shrinks a leaf says nothing.
func TestDeleteFreeingPageNotifiesReseed(t *testing.T) {
	tree, entries := buildRandomTree(t, DefaultConfig(), 400, 9)
	reseeds := 0
	defer tree.OnUpdate(func(u Update) {
		if u.Kind == UpdateReseed {
			reseeds++
		}
	})()
	pages := tree.storeRef.NumPages()
	for _, e := range entries {
		if err := tree.Delete(e.ID, e.Seg.T.Lo); err != nil {
			t.Fatal(err)
		}
		freed := tree.storeRef.NumPages() < pages
		pages = tree.storeRef.NumPages()
		want := 0
		if freed {
			want = 1
		}
		if reseeds != want {
			t.Fatalf("deleting %d: %d reseed notifications, want %d (page freed: %v)", e.ID, reseeds, want, freed)
		}
		reseeds = 0
	}
	if tree.Size() != 0 || tree.Height() != 0 {
		t.Fatalf("tree not empty: size %d height %d", tree.Size(), tree.Height())
	}
}

// The view's win, guarded: a range search allocates a few slabs, neither
// per node visited nor per match, and decoding a page costs its three.
func TestAllocationBudget(t *testing.T) {
	tree, err := BulkLoad(DefaultConfig(), pager.NewMemStore(), benchEntries(100000, 3))
	if err != nil {
		t.Fatal(err)
	}
	spatial := geom.Box{{Lo: 40, Hi: 48}, {Lo: 40, Hi: 48}}
	tw := geom.Interval{Lo: 50, Hi: 50.5}
	var c stats.Counters
	ms, err := tree.RangeSearch(spatial, tw, SearchOptions{}, &c)
	if err != nil {
		t.Fatal(err)
	}
	reads := c.Snapshot().Reads()
	if reads < 5 || len(ms) == 0 {
		t.Fatalf("query too small to mean anything: %d reads, %d matches", reads, len(ms))
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := tree.RangeSearch(spatial, tw, SearchOptions{}, &c); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Errorf("RangeSearch: %.0f allocs for %d matches over %d node reads, budget 8", allocs, len(ms), reads)
	}
	// Ten times the matches cost growth steps of the two slabs, not matches.
	wide := geom.Box{{Lo: 25, Hi: 60}, {Lo: 25, Hi: 60}}
	many, err := tree.RangeSearch(wide, tw, SearchOptions{}, &c)
	if err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(20, func() {
		if _, err := tree.RangeSearch(wide, tw, SearchOptions{}, &c); err != nil {
			t.Fatal(err)
		}
	})
	if len(many) < 10*len(ms) || allocs > 16 {
		t.Errorf("RangeSearch: %.0f allocs for %d matches (the narrow query found %d), budget 16", allocs, len(many), len(ms))
	}

	cfg := DefaultConfig()
	leaf := &Node{ID: 1}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < cfg.MaxLeafEntries(); i++ {
		leaf.Entries = append(leaf.Entries, LeafEntry{ID: ObjectID(i), Seg: randSegment(r)})
	}
	page := make([]byte, pager.PageSize)
	if err := encodeNode(cfg, leaf, page); err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(50, func() {
		if _, err := DecodePage(cfg, 1, page); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Errorf("DecodePage of a full leaf: %.0f allocs, budget 4", allocs)
	}
}

// The write path's win, guarded: an insert that finds room in a leaf edits
// the pages of its path where they lie — it allocates for the segment it
// stores, not for the nodes it passes. (A split copies the full node off
// its page; over this many inserts into half-full leaves there are few.)
func TestInsertAllocationBudget(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DualTime = true
	tree, err := BulkLoad(cfg, pager.NewMemStore(), benchEntries(50000, 7))
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.UseBuffer(1024); err != nil {
		t.Fatal(err)
	}
	fresh := benchEntries(2000, 8)
	next := 0
	insert := func() {
		if err := tree.Insert(ObjectID(50000+next), fresh[next].Seg); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for next < 1000 { // fill the buffer: a miss allocates its frame
		insert()
	}
	allocs := testing.AllocsPerRun(500, insert)
	t.Logf("%.2f allocs per insert", allocs)
	if allocs > 10 {
		t.Errorf("Insert into a %d-segment tree: %.1f allocs, budget 10", tree.Size(), allocs)
	}

	// Time-ordered inserts into one region fill one leaf after another. A
	// split copies the full node off its page, its table takes five
	// allocations and each half's box one, so what it costs beyond an
	// insert does not grow with the fanout, which is 128 boxes at d=2.
	perInsert := allocs
	const batch = 640
	late := make([]geom.Segment, 2*batch)
	for k := range late {
		t0 := 200 + float64(k)/16
		late[k] = geom.Segment{T: geom.Interval{Lo: t0, Hi: t0 + 1}, Start: geom.Point{40, 40}, End: geom.Point{41, 40.5}}
	}
	splits, k := 0, 0
	tree.OnUpdate(func(u Update) {
		if u.Kind == UpdateSubtree {
			splits++
		}
	})
	allocs = testing.AllocsPerRun(1, func() {
		splits = 0
		for range batch {
			if err := tree.Insert(ObjectID(60000+k), late[k]); err != nil {
				t.Fatal(err)
			}
			k++
		}
	})
	perSplit := (allocs - perInsert*batch) / float64(splits)
	t.Logf("%d splits in %d time-ordered inserts: %.0f allocs, %.1f per split", splits, batch, allocs, perSplit)
	if splits < batch/100 || perSplit > 24 {
		t.Errorf("%d splits in %d time-ordered inserts: %.0f allocs, %.1f per split, budget 24", splits, batch, allocs, perSplit)
	}
}
