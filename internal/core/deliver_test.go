package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dynq/internal/geom"
	"dynq/internal/rtree"
	"dynq/internal/stats"
	"dynq/internal/trajectory"
)

// liveFlight drives a live session frame by frame while its test writes to
// the index between frames, and holds the session to its delivery rule: by
// the end of each frame every episode visible in it has been delivered, and
// repeats counts the deliveries of an episode delivered before.
type liveFlight struct {
	t         *testing.T
	tree      *rtree.Tree
	tr        *trajectory.Trajectory
	pdq       *PDQ
	entries   []rtree.LeafEntry            // what the index holds
	want      map[episodeKey]geom.Interval // their episodes
	delivered map[episodeKey]bool
	repeats   int
	notes     map[rtree.UpdateKind]int // the notifications the writes sent
}

func newLiveFlight(t *testing.T, tree *rtree.Tree, entries []rtree.LeafEntry, tr *trajectory.Trajectory) *liveFlight {
	t.Helper()
	var c stats.Counters
	pdq, err := NewPDQ(tree, tr, PDQOptions{LiveUpdates: true}, &c)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pdq.Close)
	l := &liveFlight{t: t, tree: tree, tr: tr, pdq: pdq, entries: entries,
		want: bruteEpisodes(entries, tr), delivered: map[episodeKey]bool{}, notes: map[rtree.UpdateKind]int{}}
	t.Cleanup(tree.OnUpdate(func(u rtree.Update) { l.notes[u.Kind]++ }))
	return l
}

func (l *liveFlight) insert(e rtree.LeafEntry) {
	l.t.Helper()
	if err := l.tree.Insert(e.ID, e.Seg); err != nil {
		l.t.Fatal(err)
	}
	l.entries = append(l.entries, e)
	for k, iv := range bruteEpisodes([]rtree.LeafEntry{e}, l.tr) {
		l.want[k] = iv
	}
}

// remove deletes entries[i] from the index.
func (l *liveFlight) remove(i int) {
	l.t.Helper()
	e := l.entries[i]
	if err := l.tree.Delete(e.ID, e.Seg.T.Lo); err != nil {
		l.t.Fatal(err)
	}
	l.entries[i] = l.entries[len(l.entries)-1]
	l.entries = l.entries[:len(l.entries)-1]
	for k := range bruteEpisodes([]rtree.LeafEntry{e}, l.tr) {
		delete(l.want, k)
	}
}

func (l *liveFlight) frame(lo, hi float64) {
	l.t.Helper()
	rs, err := l.pdq.Drain(lo, hi)
	if err != nil {
		l.t.Fatal(err)
	}
	for _, r := range rs {
		k := episodeKey{id: r.ID, segStart: r.Seg.T.Lo, appear: r.Appear}
		if l.delivered[k] {
			l.repeats++
		}
		l.delivered[k] = true
	}
	for k, iv := range l.want {
		if !l.delivered[k] && iv.Lo <= hi && iv.Hi >= lo {
			l.t.Fatalf("frame [%g,%g]: episode %+v (%v) visible but never delivered", lo, hi, k, iv)
		}
	}
}

// standing is an object resting at the centre of straightTraj(10, 40, 20,
// 0.8, …)'s view at t0, which it stays in for its 5 time units.
func standing(id rtree.ObjectID, t0 float64) rtree.LeafEntry {
	c := geom.Point{20 + 0.8*(t0-10), 50}
	return rtree.LeafEntry{ID: id, Seg: rtree.QuantizeSegment(geom.Segment{T: geom.Interval{Lo: t0, Hi: t0 + 5}, Start: c, End: c})}
}

// An object inserted into the view lands in a leaf the session may not
// have read yet: its notification delivers it at once, and the leaf, read
// later, shows it again. Inserts that split nothing, one a frame.
func TestPDQLiveDeliversANotifiedEntryOnce(t *testing.T) {
	tree, entries := buildIndex(t, rtree.DefaultConfig(), 100, 100, 51)
	l := newLiveFlight(t, tree, entries, straightTraj(t, 10, 40, 20, 0.8, 10, 90))
	for f, lo := 0, 10.0; lo < 90; f, lo = f+1, lo+0.5 {
		l.insert(standing(rtree.ObjectID(100_000+f), lo))
		l.frame(lo, lo+0.5)
	}
	if l.notes[rtree.UpdateSubtree] > 0 || l.notes[rtree.UpdateReseed] > 0 {
		t.Fatalf("notifications %v: the inserts split a node", l.notes)
	}
	if l.repeats > 0 {
		t.Errorf("%d episodes delivered twice", l.repeats)
	}
}

// A burst of inserts beside the path splits the leaves the path reads: a
// new sibling carries entries the session delivered from the node it left.
func TestPDQLiveSplitsBesidePathDeliverOnce(t *testing.T) {
	tree, entries := buildIndex(t, rtree.DefaultConfig(), 100, 100, 52)
	l := newLiveFlight(t, tree, entries, straightTraj(t, 10, 40, 20, 0.8, 10, 90))
	r := rand.New(rand.NewSource(53))
	id := rtree.ObjectID(100_000)
	for lo := 10.0; lo < 90; lo += 0.5 {
		if int(lo)%10 == 5 && lo == float64(int(lo)) {
			// Just above the view, over the next ten time units.
			for range 400 {
				x, t0 := 10+0.8*(lo-10)+r.Float64()*30, lo+r.Float64()*10
				l.insert(rtree.LeafEntry{ID: id, Seg: rtree.QuantizeSegment(geom.Segment{
					T: geom.Interval{Lo: t0, Hi: t0 + 1}, Start: geom.Point{x, 61 + r.Float64()*4}, End: geom.Point{x + 1, 61 + r.Float64()*4},
				})})
				id++
			}
		}
		l.frame(lo, lo+0.5)
	}
	if l.notes[rtree.UpdateSubtree] == 0 {
		t.Fatal("no insert split a node: the test shows nothing")
	}
	if l.repeats > 0 {
		t.Errorf("%d episodes delivered twice", l.repeats)
	}
}

// Every kind of write at once, between frames: standing objects in the
// view, scattered inserts, bursts beside the path that split nodes, and
// deletes, some bursts of which free pages.
func TestPDQLiveMixDeliversOnce(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			tree, entries := buildIndex(t, rtree.DefaultConfig(), 60, 100, 60+seed)
			l := newLiveFlight(t, tree, entries, straightTraj(t, 10, 40, 20, 0.8, 10, 90))
			r := rand.New(rand.NewSource(seed))
			id := rtree.ObjectID(100_000)
			next := func() rtree.ObjectID { id++; return id }
			for lo := 10.0; lo < 90; lo += 0.5 {
				switch op := r.Intn(10); {
				case op < 3:
					l.insert(standing(next(), lo))
				case op < 5:
					for range r.Intn(50) {
						l.insert(randomEntry(r, next()))
					}
				case op < 7:
					x := 10 + 0.8*(lo-10)
					for range r.Intn(300) {
						e := randomEntry(r, next())
						e.Seg.Start[0], e.Seg.End[0] = x+r.Float64()*30, x+r.Float64()*30
						e.Seg = rtree.QuantizeSegment(e.Seg)
						l.insert(e)
					}
				case op < 9:
					for range r.Intn(40) {
						l.remove(r.Intn(len(l.entries)))
					}
				default:
					r.Shuffle(len(l.entries), func(i, j int) { l.entries[i], l.entries[j] = l.entries[j], l.entries[i] })
					for range len(l.entries) / 3 {
						l.remove(len(l.entries) - 1)
					}
				}
				l.frame(lo, lo+0.5)
			}
			if l.notes[rtree.UpdateSubtree] == 0 || l.notes[rtree.UpdateReseed] == 0 {
				t.Fatalf("notifications %v: no split or no freed page", l.notes)
			}
			if l.repeats > 0 {
				t.Errorf("%d episodes delivered twice", l.repeats)
			}
		})
	}
}

// A correction made in place keeps the entry's episode and moves its
// points: its notification is delivered even though the episode was, so
// the client sees where the object really is.
func TestPDQLiveDeliversAnInPlaceCorrection(t *testing.T) {
	tree, entries := buildIndex(t, rtree.DefaultConfig(), 100, 100, 54)
	mark := standing(900_000, 30)
	if err := tree.Insert(mark.ID, mark.Seg); err != nil {
		t.Fatal(err)
	}
	l := newLiveFlight(t, tree, append(entries, mark), straightTraj(t, 10, 40, 20, 0.8, 10, 90))
	for lo := 10.0; lo < 31; lo += 0.5 {
		l.frame(lo, lo+0.5)
	}
	moved := mark.Seg.Clone()
	moved.Start[1], moved.End[1] = 50.5, 50.5
	b := tree.Begin()
	if err := b.End(b.Correct(mark.ID, mark.Seg.T.Lo, moved)); err != nil {
		t.Fatal(err)
	}
	if l.notes[rtree.UpdateEntry] != 1 || l.notes[rtree.UpdateReseed] > 0 || l.notes[rtree.UpdateSubtree] > 0 {
		t.Fatalf("notifications %v: the correction was not made in place", l.notes)
	}
	rs, err := l.pdq.Drain(31, 31.5)
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(rs, func(r Result) bool { return r.ID == mark.ID })
	if i < 0 || rs[i].Seg.Start[1] != 50.5 || rs[i].Appear != 30 {
		t.Fatalf("the corrected object is not delivered after its correction: %+v", rs)
	}
}

// at returns a standing object over [30,35] at (x, y).
func at(id rtree.ObjectID, x, y float64) rtree.LeafEntry {
	return rtree.LeafEntry{ID: id, Seg: rtree.QuantizeSegment(geom.Segment{T: geom.Interval{Lo: 30, Hi: 35}, Start: geom.Point{x, y}, End: geom.Point{x, y}})}
}

// liveMark indexes the motion of objects, mark, then what fill writes, and flies a live session
// along tr through the frames from 25 up to lo.
func liveMark(t *testing.T, objects int, tr *trajectory.Trajectory, mark rtree.LeafEntry, fill func(*rtree.Tree), lo float64) *liveFlight {
	t.Helper()
	tree, entries := buildIndex(t, rtree.DefaultConfig(), objects, 100, 54)
	if err := tree.Insert(mark.ID, mark.Seg); err != nil {
		t.Fatal(err)
	}
	if fill != nil {
		fill(tree)
	}
	l := newLiveFlight(t, tree, append(entries, mark), tr)
	for f := 25.0; f < lo; f += 0.5 {
		l.frame(f, f+0.5)
	}
	return l
}

// correctMark moves the standing object mark to (x, y), in one batch with
// what more writes, and returns its new segment.
func correctMark(t *testing.T, tree *rtree.Tree, mark rtree.LeafEntry, x, y float64, more func(rtree.Batch) error) geom.Segment {
	t.Helper()
	moved := at(mark.ID, x, y).Seg
	b := tree.Begin()
	err := b.Correct(mark.ID, mark.Seg.T.Lo, moved)
	if err == nil && more != nil {
		err = more(b)
	}
	if err := b.End(err); err != nil {
		t.Fatal(err)
	}
	return moved
}

// wantMoved requires the frame [lo, hi] to deliver the object with id at
// its new place, for the episode [30,35] it had before.
func wantMoved(t *testing.T, pdq *PDQ, id rtree.ObjectID, moved geom.Segment, lo, hi float64) {
	t.Helper()
	rs, err := pdq.Drain(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(rs, func(r Result) bool { return r.ID == id })
	if i < 0 || !slices.Equal(rs[i].Seg.Start, moved.Start) || rs[i].Appear != 30 {
		t.Fatalf("object %d is not delivered at %v after its correction: %+v", id, moved.Start, rs)
	}
}

// A correction in the same batch as deletes that free pages: the session
// rebuilds from the root, and finds the corrected entry under the episode
// it delivered, with new points.
func TestPDQLiveDeliversACorrectionBesidePageFreeingDeletes(t *testing.T) {
	mark := at(900_000, 36, 50)
	l := liveMark(t, 100, straightTraj(t, 10, 40, 20, 0.8, 10, 90), mark, nil, 31)
	gone := l.entries[:len(l.entries)/3]
	moved := correctMark(t, l.tree, mark, 36, 50.5, func(b rtree.Batch) error {
		for _, e := range gone {
			if err := b.Delete(e.ID, e.Seg.T.Lo); err != nil {
				return err
			}
		}
		return nil
	})
	if l.notes[rtree.UpdateReseed] == 0 {
		t.Fatalf("notifications %v: the deletes freed no page", l.notes)
	}
	wantMoved(t, l.pdq, mark.ID, moved, 31, 31.5)
}

// A correction that does not fit its leaf's box is a delete and an insert;
// here the insert lands in a full leaf and splits it, so the session hears
// of the new entry only through the split's new sibling. The view is the
// whole world, so the object can move across it and stay in view.
func TestPDQLiveDeliversACorrectionThatSplitsALeaf(t *testing.T) {
	mark := at(900_000, 5, 5)
	for fillers := 1; fillers < 300; fillers++ {
		l := liveMark(t, 20, straightTraj(t, 0, 0, 100, 0, 10, 90), mark, func(tree *rtree.Tree) {
			// Entries where the object moves to, filling the leaf it lands in.
			for i := range fillers {
				e := at(rtree.ObjectID(800_000+i), 95, 95)
				if err := tree.Insert(e.ID, e.Seg); err != nil {
					t.Fatal(err)
				}
			}
		}, 31)
		clear(l.notes)
		moved := correctMark(t, l.tree, mark, 95, 95, nil)
		if l.notes[rtree.UpdateSubtree] == 0 || l.notes[rtree.UpdateEntry] > 0 {
			continue // made in place, or landed in a leaf with room
		}
		wantMoved(t, l.pdq, mark.ID, moved, 31, 31.5)
		return
	}
	t.Fatal("no correction split a leaf: the test shows nothing")
}

// A correction made before its episode begins, after the session queued
// the episode from the leaf: the queued copy is stale, and the notified
// one is delivered in its place.
func TestPDQLiveDeliversACorrectionMadeBeforeItsEpisode(t *testing.T) {
	mark := at(900_000, 36, 50)
	l := liveMark(t, 100, straightTraj(t, 10, 40, 20, 0.8, 10, 90), mark, nil, 29)
	queued := slices.ContainsFunc(l.pdq.pq, func(it pdqItem) bool { return it.key.isObj && it.key.obj == mark.ID })
	if !queued {
		t.Fatal("the object's episode is not queued before it begins: the test shows nothing")
	}
	moved := correctMark(t, l.tree, mark, 36, 50.5, nil)
	if l.notes[rtree.UpdateEntry] != 1 || l.notes[rtree.UpdateReseed] > 0 || l.notes[rtree.UpdateSubtree] > 0 {
		t.Fatalf("notifications %v: the correction was not made in place", l.notes)
	}
	wantMoved(t, l.pdq, mark.ID, moved, 29, 30)
}
