package core

import (
	"container/heap"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"dynq/internal/geom"
	"dynq/internal/pager"
	"dynq/internal/rtree"
	"dynq/internal/stats"
	"dynq/internal/trajectory"
)

// churnedIndex grows a tree the ways a live index grows: a bulk load, then
// inserts (splitting nodes) interleaved with deletes (dissolving them).
func churnedIndex(t testing.TB, cfg rtree.Config, seed int64) (*rtree.Tree, []rtree.LeafEntry) {
	t.Helper()
	tree, entries := buildIndex(t, cfg, 300, 100, seed)
	entries = append([]rtree.LeafEntry(nil), entries...)
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < 3000; i++ {
		e := randomEntry(r, rtree.ObjectID(100000+i))
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
	return tree, entries
}

func randomEntry(r *rand.Rand, id rtree.ObjectID) rtree.LeafEntry {
	t0, dt := r.Float64()*99, 0.2+r.Float64()*2
	x, y := r.Float64()*100, r.Float64()*100
	return rtree.LeafEntry{ID: id, Seg: rtree.QuantizeSegment(geom.Segment{
		T:     geom.Interval{Lo: t0, Hi: t0 + dt},
		Start: geom.Point{x, y},
		End:   geom.Point{x + (r.Float64()*2-1)*dt, y + (r.Float64()*2-1)*dt},
	})}
}

// refNPDQ is the non-predictive session as it was before node views: a
// recursive descent materialising every visited node through Tree.Load.
type refNPDQ struct {
	tree *rtree.Tree
	c    *stats.Counters
	// exact tests entries exactly and suppresses nothing: its first frame
	// is a plain snapshot descent.
	exact bool

	hasPrev bool
	prevQ   geom.Box
	prevSeq uint64
}

func (nq *refNPDQ) next(window geom.Box, tw geom.Interval) ([]Result, error) {
	q := rtree.QueryBox(window, tw)
	qExact := append(window.Clone(), tw)
	seqBefore := nq.tree.ModSeq()
	var out []Result
	if root, _, ok := nq.tree.Root(); ok {
		if err := nq.visit(root, q, qExact, &out); err != nil {
			return nil, err
		}
	}
	nq.c.AddResults(len(out))
	nq.hasPrev, nq.prevQ, nq.prevSeq = true, q, seqBefore
	return out, nil
}

func (nq *refNPDQ) visit(id pager.PageID, q, qExact geom.Box, out *[]Result) error {
	n, err := nq.tree.Load(id, nq.c)
	if err != nil {
		return err
	}
	d := nq.tree.Config().Dims
	clean := nq.hasPrev && !nq.exact && n.Stamp <= nq.prevSeq
	for _, e := range n.Entries {
		nq.c.AddDistanceComps(1)
		ov := e.Seg.OverlapTimeInBox(qExact)
		if nq.exact {
			if ov.Empty() {
				continue
			}
		} else {
			if !e.Box(d).Overlaps(q) || (clean && e.Box(d).Overlaps(nq.prevQ)) {
				continue
			}
			if ov.Empty() {
				ov = e.Seg.T.Intersect(qExact[d])
			}
		}
		*out = append(*out, Result{ID: e.ID, Seg: e.Seg, Appear: ov.Lo, Disappear: ov.Hi})
	}
	for _, ch := range n.Children {
		nq.c.AddDistanceComps(1)
		if !ch.Box.Overlaps(q) {
			continue
		}
		if clean && nq.prevQ.Contains(q.Intersect(ch.Box)) {
			nq.c.AddPruned(1)
			continue
		}
		if err := nq.visit(ch.ID, q, qExact, out); err != nil {
			return err
		}
	}
	return nil
}

// refItem is a queue item that carries its entry itself.
type refItem struct {
	pdqItem
	entry rtree.LeafEntry
}

// refHeap orders queue items as the session does, through container/heap.
type refHeap []refItem

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].less(&h[j].pdqItem) }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(refItem)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// refPDQDrain is a whole predictive query over an unchanging tree as it was
// before node views: container/heap, every popped node materialised through
// Tree.Load.
func refPDQDrain(tree *rtree.Tree, traj *trajectory.Trajectory, tStart, tEnd float64, c *stats.Counters) ([]Result, error) {
	var (
		pq      refHeap
		seq     uint64
		lastPop pdqKey
		havePop bool
		out     []Result
		set     geom.IntervalSet
	)
	push := func(it refItem) {
		if !it.key.iv.Empty() {
			seq++
			it.seq = seq
			heap.Push(&pq, it)
		}
	}
	if root, _, ok := tree.Root(); ok {
		push(refItem{pdqItem: pdqItem{key: pdqKey{iv: traj.TimeSpan(), node: root}}})
	}
	for len(pq) > 0 && tEnd >= pq[0].key.iv.Lo {
		item := heap.Pop(&pq).(refItem)
		if havePop && item.key == lastPop {
			continue
		}
		lastPop, havePop = item.key, true
		if tStart > item.key.iv.Hi {
			continue
		}
		if item.key.isObj {
			c.AddResults(1)
			out = append(out, Result{ID: item.entry.ID, Seg: item.entry.Seg, Appear: item.key.iv.Lo, Disappear: item.key.iv.Hi})
			continue
		}
		n, err := tree.Load(item.key.node, c)
		if err != nil {
			return nil, err
		}
		for _, e := range n.Entries {
			c.AddDistanceComps(1)
			set.Reset()
			traj.OverlapSegment(e.Seg, &set)
			for _, iv := range set.Intervals() {
				if tStart <= iv.Hi {
					push(refItem{pdqItem{key: pdqKey{iv: iv, isObj: true, obj: e.ID, segStart: e.Seg.T.Lo}}, e})
				}
			}
		}
		for _, ch := range n.Children {
			c.AddDistanceComps(1)
			set.Reset()
			traj.OverlapBox(ch.Box, &set)
			if set.Empty() {
				c.AddPruned(1)
			}
			for _, iv := range set.Intervals() {
				if tStart <= iv.Hi {
					push(refItem{pdqItem: pdqItem{key: pdqKey{iv: iv, node: ch.ID}}})
				}
			}
		}
	}
	return out, nil
}

// refKNN is KNNCtx as it was before node views: every popped node
// materialised through Tree.Load, every alive entry of a leaf queued.
func refKNN(tree *rtree.Tree, p geom.Point, t float64, k int, c *stats.Counters) ([]Neighbor, error) {
	d := tree.Config().Dims
	root, _, ok := tree.Root()
	if !ok {
		return nil, nil
	}
	pq := &refKNNHeap{{node: root, dist: 0}}
	var out []Neighbor
	for pq.Len() > 0 {
		item := heap.Pop(pq).(refKNNItem)
		if item.isObj {
			if !slices.ContainsFunc(out, func(nb Neighbor) bool { return nb.ID == item.nb.ID }) {
				out = append(out, item.nb)
				if len(out) >= k {
					break
				}
			}
			continue
		}
		n, err := tree.Load(item.node, c)
		if err != nil {
			return nil, err
		}
		if n.Leaf() {
			for _, e := range n.Entries {
				c.AddDistanceComps(1)
				if !e.Seg.T.ContainsValue(t) {
					continue
				}
				dist := math.Sqrt(e.Seg.DistSqAt(t, p))
				heap.Push(pq, refKNNItem{isObj: true, dist: dist, nb: Neighbor{ID: e.ID, Seg: e.Seg, Dist: dist}})
			}
		} else {
			for _, ch := range n.Children {
				c.AddDistanceComps(1)
				if ch.Box[d].Lo > t || ch.Box[d+1].Hi < t {
					continue
				}
				heap.Push(pq, refKNNItem{node: ch.ID, dist: boxDist(ch.Box[:d], p)})
			}
		}
	}
	c.AddResults(len(out))
	sortNeighbors(out)
	return out, nil
}

// refKNNItem and refKNNHeap are the KNN queue as it was before the typed
// queue: container/heap over items that carry the whole neighbor.
type refKNNItem struct {
	dist  float64
	isObj bool
	node  pager.PageID
	nb    Neighbor
}

type refKNNHeap []refKNNItem

func (h refKNNHeap) Len() int { return len(h) }
func (h refKNNHeap) Less(i, j int) bool {
	if h[i].dist != h[j].dist {
		return h[i].dist < h[j].dist
	}
	// Objects before nodes at equal distance, then by id for determinism.
	if h[i].isObj != h[j].isObj {
		return h[i].isObj
	}
	if h[i].isObj {
		return h[i].nb.ID < h[j].nb.ID
	}
	return h[i].node < h[j].node
}
func (h refKNNHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refKNNHeap) Push(x any)   { *h = append(*h, x.(refKNNItem)) }
func (h *refKNNHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func sortNeighbors(out []Neighbor) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].ID < out[j].ID
	})
}

// refDistanceJoin is DistanceJoin as it was before node views: a node
// read through Tree.Load once per join and kept, decoded, in a map.
func refDistanceJoin(treeA, treeB *rtree.Tree, delta, t float64, c *stats.Counters) ([]JoinPair, error) {
	rootA, levelA, okA := treeA.Root()
	rootB, levelB, okB := treeB.Root()
	if !okA || !okB {
		return nil, nil
	}
	j := &refJoiner{
		treeA: treeA, treeB: treeB,
		self:  treeA == treeB,
		delta: delta, t: t, c: c,
		d:      treeA.Config().Dims,
		loaded: make(map[pager.PageID]*rtree.Node),
	}
	var out []JoinPair
	if err := j.visit(rootA, levelA, rootB, levelB, &out); err != nil {
		return nil, err
	}
	c.AddResults(len(out))
	return out, nil
}

type refJoiner struct {
	treeA, treeB *rtree.Tree
	self         bool
	delta, t     float64
	c            *stats.Counters
	d            int
	loaded       map[pager.PageID]*rtree.Node
}

func (j *refJoiner) load(tree *rtree.Tree, id pager.PageID) (*rtree.Node, error) {
	// For a self-join the two trees share pages; otherwise key the cache
	// by tree.
	key := id
	if !j.self && tree == j.treeB {
		key = id | 1<<31
	}
	if n, ok := j.loaded[key]; ok {
		return n, nil
	}
	n, err := tree.Load(id, j.c)
	if err != nil {
		return nil, err
	}
	j.loaded[key] = n
	return n, nil
}

func (j *refJoiner) alive(b geom.Box) bool {
	return b[j.d].Lo <= j.t && b[j.d+1].Hi >= j.t
}

func (j *refJoiner) visit(idA pager.PageID, levelA int, idB pager.PageID, levelB int, out *[]JoinPair) error {
	switch {
	case levelA > 0 && levelA >= levelB:
		nA, err := j.load(j.treeA, idA)
		if err != nil {
			return err
		}
		bBox, err := j.peekBox(j.treeB, idB)
		if err != nil {
			return err
		}
		for _, ch := range nA.Children {
			j.c.AddDistanceComps(1)
			if !j.alive(ch.Box) || boxMinDist(ch.Box, bBox, j.d) > j.delta {
				continue
			}
			if err := j.visit(ch.ID, levelA-1, idB, levelB, out); err != nil {
				return err
			}
		}
		return nil
	case levelB > 0:
		nB, err := j.load(j.treeB, idB)
		if err != nil {
			return err
		}
		aBox, err := j.peekBox(j.treeA, idA)
		if err != nil {
			return err
		}
		for _, ch := range nB.Children {
			j.c.AddDistanceComps(1)
			if !j.alive(ch.Box) || boxMinDist(aBox, ch.Box, j.d) > j.delta {
				continue
			}
			if err := j.visit(idA, levelA, ch.ID, levelB-1, out); err != nil {
				return err
			}
		}
		return nil
	}
	if j.self && idA == idB {
		return j.selfLeaf(idA, out)
	}
	if j.self && idA > idB {
		return nil
	}
	nA, err := j.load(j.treeA, idA)
	if err != nil {
		return err
	}
	nB, err := j.load(j.treeB, idB)
	if err != nil {
		return err
	}
	for _, ea := range nA.Entries {
		if !ea.Seg.T.ContainsValue(j.t) {
			continue
		}
		pa := ea.Seg.At(j.t)
		for _, eb := range nB.Entries {
			j.c.AddDistanceComps(1)
			if !eb.Seg.T.ContainsValue(j.t) {
				continue
			}
			if j.self && ea.ID == eb.ID {
				continue
			}
			dist := pa.Dist(eb.Seg.At(j.t))
			if dist <= j.delta {
				pair := JoinPair{A: ea.ID, B: eb.ID, SegA: ea.Seg, SegB: eb.Seg, Dist: dist}
				if j.self && pair.A > pair.B {
					pair = JoinPair{A: eb.ID, B: ea.ID, SegA: eb.Seg, SegB: ea.Seg, Dist: dist}
				}
				*out = append(*out, pair)
			}
		}
	}
	return nil
}

func (j *refJoiner) selfLeaf(id pager.PageID, out *[]JoinPair) error {
	n, err := j.load(j.treeA, id)
	if err != nil {
		return err
	}
	for i, ea := range n.Entries {
		if !ea.Seg.T.ContainsValue(j.t) {
			continue
		}
		pa := ea.Seg.At(j.t)
		for _, eb := range n.Entries[i+1:] {
			j.c.AddDistanceComps(1)
			if !eb.Seg.T.ContainsValue(j.t) || ea.ID == eb.ID {
				continue
			}
			dist := pa.Dist(eb.Seg.At(j.t))
			if dist <= j.delta {
				a, b := ea, eb
				if a.ID > b.ID {
					a, b = b, a
				}
				*out = append(*out, JoinPair{A: a.ID, B: b.ID, SegA: a.Seg, SegB: b.Seg, Dist: dist})
			}
		}
	}
	return nil
}

func (j *refJoiner) peekBox(tree *rtree.Tree, id pager.PageID) (geom.Box, error) {
	n, err := j.load(tree, id)
	if err != nil {
		return nil, err
	}
	box := geom.NewBox(j.d + 2)
	for _, ch := range n.Children {
		box.CoverInPlace(ch.Box)
	}
	for _, e := range n.Entries {
		box.CoverInPlace(e.Box(j.d))
	}
	return box, nil
}

// KNN and the distance join on node views return the same answers in the
// same order at the same cost as the Load-based references, over trees
// grown by churn in both layouts: KNN, the self join and a cross join.
func TestQueriesMatchLoadReference(t *testing.T) {
	for _, dual := range []bool{false, true} {
		cfg := rtree.DefaultConfig()
		cfg.DualTime = dual
		tree, _ := churnedIndex(t, cfg, 23)
		other, _ := churnedIndex(t, cfg, 24)
		r := rand.New(rand.NewSource(25))
		pairs := 0
		for i := 0; i < 40; i++ {
			p, at := geom.Point{r.Float64() * 100, r.Float64() * 100}, r.Float64()*100
			k := 1 + r.Intn(30)
			var gc, wc stats.Counters
			got, err := KNN(tree, p, at, k, &gc)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refKNN(tree, p, at, k, &wc)
			if err != nil {
				t.Fatal(err)
			}
			sameAnswers(t, "knn", got, want, &gc, &wc)

			delta := r.Float64() * 3
			for _, b := range []*rtree.Tree{tree, other} {
				got, err := DistanceJoin(tree, b, delta, at, &gc)
				if err != nil {
					t.Fatal(err)
				}
				want, err := refDistanceJoin(tree, b, delta, at, &wc)
				if err != nil {
					t.Fatal(err)
				}
				sameAnswers(t, "join", got, want, &gc, &wc)
				pairs += len(got)
			}
		}
		if pairs < 100 {
			t.Fatalf("dual=%v: the joins found %d pairs: too few to compare", dual, pairs)
		}
	}
}

func sameAnswers[T any](t *testing.T, what string, got, want []T, gc, wc *stats.Counters) {
	t.Helper()
	if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
		t.Fatalf("%s: %d answers, reference %d, or order differs", what, len(got), len(want))
	}
	if gc.Snapshot() != wc.Snapshot() {
		t.Fatalf("%s: cost %+v, reference %+v", what, gc.Snapshot(), wc.Snapshot())
	}
}

// Sessions on node views deliver the same results in the same order at the
// same cost as the Load-based references, over trees grown by churn, with
// inserts landing between frames.
func TestSessionsMatchLoadReference(t *testing.T) {
	for _, dual := range []bool{false, true} {
		cfg := rtree.DefaultConfig()
		cfg.DualTime = dual
		tree, _ := churnedIndex(t, cfg, 21)
		r := rand.New(rand.NewSource(22))
		nextID := rtree.ObjectID(200000)

		var gc, wc stats.Counters
		nq := NewNPDQ(tree, NPDQOptions{}, &gc)
		ref := &refNPDQ{tree: tree, c: &wc}
		wins, tws := frameWindows(20, 40, 10, 0.6, 10, 0.5, 80)
		for f := range wins {
			if f%4 == 3 { // dirty some stamps
				e := randomEntry(r, nextID)
				nextID++
				if err := tree.Insert(e.ID, e.Seg); err != nil {
					t.Fatal(err)
				}
			}
			got, err := nq.Next(wins[f], tws[f])
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.next(wins[f], tws[f])
			if err != nil {
				t.Fatal(err)
			}
			sameAnswers(t, "npdq", got, want, &gc, &wc)
		}

		// A snapshot is the reference's first exact frame: a plain descent
		// testing every decoded entry.
		wins, tws = frameWindows(20, 40, 10, 0.6, 10, 0.5, 40)
		for f := range wins {
			var gc, wc stats.Counters
			got, err := NewNaive(tree, rtree.SearchOptions{}, &gc).Snapshot(wins[f], tws[f])
			if err != nil {
				t.Fatal(err)
			}
			want, err := (&refNPDQ{tree: tree, c: &wc, exact: true}).next(wins[f], tws[f])
			if err != nil {
				t.Fatal(err)
			}
			sameAnswers(t, "snapshot", got, want, &gc, &wc)
		}

		for i, tr := range []*trajectory.Trajectory{
			straightTraj(t, 10, 30, 12, 0.7, 5, 95),
			straightTraj(t, 60, 60, 6, -0.5, 20, 70),
		} {
			var gc, wc stats.Counters
			pdq, err := NewPDQ(tree, tr, PDQOptions{}, &gc)
			if err != nil {
				t.Fatal(err)
			}
			span := tr.TimeSpan()
			// Frame by frame on one side, in one piece on the other: the
			// pop order does not depend on where the frames fall.
			var got []Result
			for f := 0; f < 10; f++ {
				lo := span.Lo + span.Length()*float64(f)/10
				rs, err := pdq.Drain(lo, lo+span.Length()/10)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, rs...)
			}
			pdq.Close()
			want, err := refPDQDrain(tree, tr, span.Lo, span.Hi, &wc)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				t.Fatalf("trajectory %d sees nothing", i)
			}
			sameAnswers(t, "pdq", got, want, &gc, &wc)
		}
	}
}

// Deleting under a live predictive session until leaves empty and their
// pages are freed (and reused by later inserts) must not break it: no
// error, what it delivers covers what a fresh scan of the surviving
// segments says is visible from the deletion on, and the rebuild from the
// root that follows delivers nothing the first drain did.
func TestPDQLiveSurvivesPageFreeingDeletes(t *testing.T) {
	tree, entries := buildIndex(t, rtree.DefaultConfig(), 100, 100, 31)
	tr := straightTraj(t, 10, 30, 30, 0.5, 5, 95)
	var c stats.Counters
	pdq, err := NewPDQ(tree, tr, PDQOptions{LiveUpdates: true}, &c)
	if err != nil {
		t.Fatal(err)
	}
	defer pdq.Close()
	first, err := pdq.Drain(5, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(pdq.pq) == 0 {
		t.Fatal("nothing queued: the deletes below would not touch the session")
	}

	reseeds := 0
	defer tree.OnUpdate(func(u rtree.Update) {
		if u.Kind == rtree.UpdateReseed {
			reseeds++
		}
	})()
	// Delete four fifths of the index, then reuse the freed pages.
	r := rand.New(rand.NewSource(32))
	r.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
	cut := len(entries) / 5
	for _, e := range entries[cut:] {
		if err := tree.Delete(e.ID, e.Seg.T.Lo); err != nil {
			t.Fatal(err)
		}
	}
	if reseeds == 0 {
		t.Fatal("no deletion freed a page: the test exercises nothing")
	}
	live := append([]rtree.LeafEntry(nil), entries[:cut]...)
	for i := 0; i < 2000; i++ {
		e := randomEntry(r, rtree.ObjectID(300000+i))
		if err := tree.Insert(e.ID, e.Seg); err != nil {
			t.Fatal(err)
		}
		live = append(live, e)
	}

	rest, err := pdq.Drain(30, 95)
	if err != nil {
		t.Fatalf("drain after page-freeing deletes: %v", err)
	}
	got := map[episodeKey]bool{}
	repeats := 0
	for _, r := range append(first, rest...) {
		k := episodeKey{id: r.ID, segStart: r.Seg.T.Lo, appear: r.Appear}
		if got[k] {
			repeats++
		}
		got[k] = true
	}
	missing := 0
	for k, iv := range bruteEpisodes(live, tr) {
		if iv.Hi >= 30 && !got[k] {
			missing++
		}
	}
	if missing > 0 || repeats > 0 {
		t.Errorf("%d episodes visible from t=30 on were never delivered and %d were delivered twice (%d, then %d delivered)", missing, repeats, len(first), len(rest))
	}
}

// A non-predictive frame allocates the two slabs of its answer — results
// and their coordinates, a growth step each — whatever it visits and
// however many results it delivers.
func TestNPDQFrameAllocationBudget(t *testing.T) {
	cfg := rtree.DefaultConfig()
	cfg.DualTime = true
	tree, _ := buildIndex(t, cfg, 1000, 100, 61)
	var c stats.Counters
	nq := NewNPDQ(tree, NPDQOptions{}, &c)
	wins, tws := frameWindows(20, 40, 8, 0.08, 10, 0.1, 400)
	if _, err := nq.Next(wins[0], tws[0]); err != nil {
		t.Fatal(err)
	}
	f, delivered, most := 1, 0, 0
	allocs := testing.AllocsPerRun(len(wins)-2, func() {
		rs, err := nq.Next(wins[f], tws[f])
		if err != nil {
			t.Fatal(err)
		}
		delivered, most, f = delivered+len(rs), max(most, len(rs)), f+1
	})
	reads := c.Snapshot().Reads()
	if reads < int64(2*f) || delivered == 0 {
		t.Fatalf("frames too small to mean anything: %d reads and %d results over %d frames", reads, delivered, f)
	}
	if most > 16 {
		t.Fatalf("a frame delivered %d results: more than two growth steps, the budget below no longer applies", most)
	}
	if allocs > 4 {
		t.Errorf("NPDQ.Next: %.1f allocs per frame for up to %d results over %.1f node reads, budget 4",
			allocs, most, float64(reads)/float64(f))
	}
}
