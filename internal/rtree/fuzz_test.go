package rtree

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dynq/internal/geom"
	"dynq/internal/pager"
)

// checkViewMatchesDecode opens one page both ways. The view and DecodePage
// must agree on accept/reject, and on accept every entry read through the
// view must equal the decoded node's. It returns the decoded node (nil if
// the page was rejected).
func checkViewMatchesDecode(t *testing.T, cfg Config, page []byte) *Node {
	t.Helper()
	n, derr := DecodePage(cfg, 7, page)
	v, verr := openView(cfg, 7, page)
	if (derr == nil) != (verr == nil) {
		t.Fatalf("DecodePage err = %v, openView err = %v", derr, verr)
	}
	if derr != nil {
		return nil
	}
	if n == nil {
		t.Fatal("nil node with nil error")
	}
	if n.ID != 7 || v.Level() != n.Level || v.Leaf() != n.Leaf() || v.Len() != n.Len() || v.Stamp() != n.Stamp {
		t.Fatalf("view header (level %d len %d stamp %d) != node (id %d level %d len %d stamp %d)",
			v.Level(), v.Len(), v.Stamp(), n.ID, n.Level, n.Len(), n.Stamp)
	}
	// Compare bit patterns: a corrupt page may hold NaNs.
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	sameBox := func(a, b geom.Box) bool {
		ok := len(a) == len(b)
		for i := 0; ok && i < len(a); i++ {
			ok = same(a[i].Lo, b[i].Lo) && same(a[i].Hi, b[i].Hi)
		}
		return ok
	}
	var e LeafEntry
	var slab Slab
	d := cfg.Dims
	lines := make([]geom.Linear, d)
	box := make(geom.Box, cfg.boxDims())
	// Probes: a plain box, the same inverted (it meets nothing but NaN), and
	// one unbounded on every axis.
	probe := make(geom.Box, cfg.boxDims())
	inverted := make(geom.Box, cfg.boxDims())
	unbounded := make(geom.Box, cfg.boxDims())
	for i := range probe {
		probe[i] = geom.Interval{Lo: 0.5, Hi: 50}
		inverted[i] = geom.Interval{Lo: 50, Hi: 0.5}
		unbounded[i] = geom.UniverseInterval()
	}
	if v.MBR(box); !sameBox(box, n.MBR(d)) {
		t.Fatalf("MBR: view %v, decoded %v", box, n.MBR(d))
	}
	for k := 0; k < v.Len(); k++ {
		if v.Leaf() {
			want := n.Entries[k]
			v.Entry(k, &e)
			id, tLo := v.EntryKey(k)
			ok := e.ID == want.ID && id == want.ID && same(tLo, want.Seg.T.Lo) &&
				same(e.Seg.T.Lo, want.Seg.T.Lo) && same(e.Seg.T.Hi, want.Seg.T.Hi) &&
				len(e.Seg.Start) == cfg.Dims && len(e.Seg.End) == cfg.Dims
			for i := 0; ok && i < cfg.Dims; i++ {
				ok = same(e.Seg.Start[i], want.Seg.Start[i]) && same(e.Seg.End[i], want.Seg.End[i])
			}
			if et := v.EntryTime(k); !ok || !same(et.Lo, want.Seg.T.Lo) || !same(et.Hi, want.Seg.T.Hi) {
				t.Fatalf("leaf entry %d: view %+v, decoded %+v", k, e, want)
			}
			own := want.Box(d)
			if v.EntryBox(k, box); !sameBox(box, own) {
				t.Fatalf("leaf entry %d: EntryBox %v, decoded Box %v", k, box, own)
			}
			for _, q := range []geom.Box{own, probe, inverted, unbounded} {
				if got, exp := v.EntryOverlaps(k, boxQuery(q)), own.Overlaps(q); got != exp {
					t.Fatalf("leaf entry %d: EntryOverlaps(%v) = %v, Box.Overlaps = %v", k, q, got, exp)
				}
				// An exact box is the spatial extents, then the time window;
				// an empty interval has no canonical bits.
				exact := q[:d+1]
				if got, exp := v.EntryOverlapTime(k, exactQuery(exact)), want.Seg.OverlapTimeInBox(exact); !(got.Empty() && exp.Empty()) && !sameBox(geom.Box{got}, geom.Box{exp}) {
					t.Fatalf("leaf entry %d: EntryOverlapTime(%v) = %v, OverlapTimeInBox = %v", k, exact, got, exp)
				}
			}
			vt := v.EntryLines(k, lines)
			ok = same(vt.Lo, want.Seg.T.Lo) && same(vt.Hi, want.Seg.T.Hi)
			for i := 0; ok && i < d; i++ {
				l := geom.LinearBetween(want.Seg.T.Lo, want.Seg.Start[i], want.Seg.T.Hi, want.Seg.End[i])
				ok = same(lines[i].A, l.A) && same(lines[i].B, l.B) && same(lines[i].T0, l.T0)
			}
			if !ok {
				t.Fatalf("leaf entry %d: EntryLines %v over %v, decoded %+v", k, lines, vt, want.Seg)
			}
			kept := v.Keep(k, &slab)
			ok = kept.ID == e.ID && same(kept.Seg.T.Lo, e.Seg.T.Lo) && same(kept.Seg.T.Hi, e.Seg.T.Hi) &&
				len(kept.Seg.Start) == d && cap(kept.Seg.Start) == d && len(kept.Seg.End) == d && cap(kept.Seg.End) == d
			for i := 0; ok && i < d; i++ {
				ok = same(kept.Seg.Start[i], e.Seg.Start[i]) && same(kept.Seg.End[i], e.Seg.End[i])
			}
			if !ok {
				t.Fatalf("leaf entry %d: Keep %+v (caps %d %d), Entry %+v", k, kept, cap(kept.Seg.Start), cap(kept.Seg.End), e)
			}
			continue
		}
		want := n.Children[k]
		v.ChildBox(k, box)
		ok := v.ChildID(k) == want.ID && len(want.Box) == len(box) &&
			same(v.ChildStartTimes(k).Lo, want.Box[cfg.Dims].Lo) && same(v.ChildStartTimes(k).Hi, want.Box[cfg.Dims].Hi)
		for i := 0; ok && i < len(box); i++ {
			ok = same(box[i].Lo, want.Box[i].Lo) && same(box[i].Hi, want.Box[i].Hi)
		}
		if !ok {
			t.Fatalf("child %d: view %d %v, decoded %d %v", k, v.ChildID(k), box, want.ID, want.Box)
		}
		for _, q := range []geom.Box{want.Box, probe, inverted, unbounded} {
			if got, exp := v.ChildOverlaps(k, q), want.Box.Overlaps(q); got != exp {
				t.Fatalf("child %d: ChildOverlaps(%v) = %v, Box.Overlaps = %v", k, q, got, exp)
			}
		}
	}
	return n
}

// FuzzDecodePage asserts the node codec's contract on hostile input:
// whatever bytes a corrupt page contains, DecodePage and the page view
// both return an error or agree on a well-formed node — neither panics or
// over-reads. A decoded node must also survive re-encoding (its entry
// counts fit the fanout).
func FuzzDecodePage(f *testing.F) {
	// Seed with real encodings: a leaf and an internal page in both
	// temporal layouts, plus degenerate headers.
	for _, dual := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.DualTime = dual
		leaf := &Node{Level: 0, Stamp: 3}
		for i := 0; i < 4; i++ {
			leaf.Entries = append(leaf.Entries, LeafEntry{
				ID: ObjectID(i),
				Seg: geom.Segment{
					Start: geom.Point{float64(i), 0},
					End:   geom.Point{float64(i) + 1, 1},
					T:     geom.Interval{Lo: 0, Hi: 1},
				},
			})
		}
		buf := make([]byte, pager.PageSize)
		if err := encodeNode(cfg, leaf, buf); err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(2), dual, append([]byte(nil), buf...))

		inner := &Node{Level: 1, Stamp: 9}
		box := make(geom.Box, cfg.boxDims())
		for i := range box {
			box[i] = geom.Interval{Lo: 0, Hi: 1}
		}
		inner.Children = []Child{{ID: 5, Box: box}}
		if err := encodeNode(cfg, inner, buf); err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(2), dual, append([]byte(nil), buf...))
	}
	f.Add(uint8(0), false, []byte{})
	f.Add(uint8(7), true, []byte{0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, dims uint8, dual bool, data []byte) {
		cfg := DefaultConfig()
		cfg.Dims = 1 + int(dims%8)
		cfg.DualTime = dual
		page := make([]byte, pager.PageSize)
		copy(page, data)
		n := checkViewMatchesDecode(t, cfg, page)
		if n == nil {
			return
		}
		out := make([]byte, pager.PageSize)
		if err := encodeNode(cfg, n, out); err != nil {
			t.Fatalf("decoded node does not re-encode: %v", err)
		}
	})
}

// FuzzEntryOverlapTime: whatever a leaf holds — degenerate, zero-length
// and inverted segments, coordinates on the edges of float32 — and whatever
// the query box — touching borders, empty, unbounded and NaN windows — the
// exact test on the page returns the floats the pre-kernel test returned
// for the decoded entry, and its gate rejects what it must
// (checkLeafKernel, kernel_test.go). The seed corpus
// (testdata/fuzz/FuzzEntryOverlapTime) names each case: an end point on a
// border in space and in time, end points beyond a border by less than the
// margin and by more, instants, ±0, ±MaxFloat32, ±Inf borders, an
// inverted query extent, inverted validity, and a NaN window.
func FuzzEntryOverlapTime(f *testing.F) {
	r := rand.New(rand.NewSource(23))
	for i := 0; i < 12; i++ {
		data := make([]byte, 900)
		r.Read(data)
		f.Add(uint8(i), i%2 == 0, data)
	}
	f.Add(uint8(0), false, []byte{})
	f.Add(uint8(1), true, bytes.Repeat([]byte{3}, 400)) // one value everywhere: every segment a point
	f.Fuzz(func(t *testing.T, dims uint8, dual bool, data []byte) {
		checkLeafKernel(t, leafKernelConfig(dims, dual), data)
	})
}

// FuzzNextBoxOverlap: whatever a leaf holds — f32 edges, ±0, ±Inf, NaN —
// and whatever the query box — touching borders, ±Inf bounds, inverted
// extents, NaN bounds — a box-test scan stops at the first entry the
// per-entry test it replaced accepts (kernel_test.go). Seed corpus in
// testdata/fuzz/FuzzNextBoxOverlap.
func FuzzNextBoxOverlap(f *testing.F) {
	r := rand.New(rand.NewSource(31))
	for i := 0; i < 12; i++ {
		data := make([]byte, 900)
		r.Read(data)
		f.Add(uint8(i), i%2 == 0, data)
	}
	f.Add(uint8(0), false, []byte{})
	f.Add(uint8(1), true, bytes.Repeat([]byte{3}, 400)) // one value everywhere: every box a point
	f.Fuzz(func(t *testing.T, dims uint8, dual bool, data []byte) {
		checkBoxScan(t, leafKernelConfig(dims, dual), data)
	})
}

// FuzzChooseChild: whatever an internal node's child boxes — inverted
// (empty), ±0, ±MaxFloat32 wide, duplicated — and whatever the box to
// place, empty or stored, the descent's child choice picks the child the
// Box methods pick (checkChooseChild, kernel_test.go), in both layouts and
// one to three dimensions. The seed corpus (testdata/fuzz/FuzzChooseChild)
// names each case; margin-ties-dual-dims2 is settled by the end-time
// extent's width alone, inverted-query-dual-dims2 by the empty box's rule.
func FuzzChooseChild(f *testing.F) {
	r := rand.New(rand.NewSource(37))
	for i := 0; i < 12; i++ {
		data := make([]byte, 900)
		r.Read(data)
		f.Add(uint8(i), i%2 == 0, data)
	}
	f.Add(uint8(0), false, []byte{})
	f.Fuzz(func(t *testing.T, dims uint8, dual bool, data []byte) {
		checkChooseChild(t, leafKernelConfig(dims, dual), data)
	})
}

// editRig runs one sequence of inserts, deletes and corrections against two
// trees over separate stores: got, written by the tree's in-place edits, and
// want, written by the decode-mutate-encode reference (refwrite_test.go).
// After every operation the two must be indistinguishable. A third tree,
// twin, takes every correction as a delete and an insert: its answers must
// be got's.
type editRig struct {
	t         testing.TB
	cfg       Config
	got, want *Tree
	twin      *Tree
	gs, ws    *pager.MemStore
	gu, wu    []Update // what each tree's listener has been told
	live      []LeafEntry
	nextID    ObjectID
	// lockstep: both pools have seen the same accesses, so even their
	// stores' bytes and their eviction counters must agree at every step.
	// A correction searches where its replacement starts first, touching
	// other frames than the reference's search by start time, and ends it.
	lockstep bool
	ops      int
}

func newEditRig(t testing.TB, cfg Config, capacity int, base []LeafEntry) *editRig {
	t.Helper()
	r := &editRig{t: t, cfg: cfg, gs: pager.NewMemStore(), ws: pager.NewMemStore(), lockstep: true}
	build := func(store pager.Store, log *[]Update) *Tree {
		tree, err := BulkLoad(cfg, store, base)
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.UseBuffer(capacity); err != nil {
			t.Fatal(err)
		}
		if log != nil {
			tree.OnUpdate(func(u Update) { *log = append(*log, u) })
		}
		return tree
	}
	r.got, r.want = build(r.gs, &r.gu), build(r.ws, &r.wu)
	r.twin = build(pager.NewMemStore(), nil)
	r.live = append(r.live, base...)
	r.nextID = ObjectID(len(base))
	r.check()
	return r
}

func (r *editRig) insert(seg geom.Segment) {
	id := r.nextID
	r.nextID++
	gerr, werr := r.got.Insert(id, seg), r.want.refInsert(id, seg)
	if gerr == nil {
		r.live = append(r.live, LeafEntry{ID: id, Seg: QuantizeSegment(seg)})
	}
	r.twinSays("insert", gerr, r.twin.Insert(id, seg))
	r.same("insert", gerr, werr)
}

// delete removes live entry k (any k is taken modulo the population; with
// nothing live, or missing set, it asks for a segment that is not there).
func (r *editRig) delete(k int, missing bool) {
	id, t0 := r.nextID+1000, 1.0
	if !missing && len(r.live) > 0 {
		k %= len(r.live)
		id, t0 = r.live[k].ID, r.live[k].Seg.T.Lo
		r.live[k] = r.live[len(r.live)-1]
		r.live = r.live[:len(r.live)-1]
	}
	gerr, werr := r.got.Delete(id, t0), r.want.refDelete(id, t0)
	r.twinSays("delete", gerr, r.twin.Delete(id, t0))
	r.same("delete", gerr, werr)
}

// correct replaces live entry k (any k is taken modulo the population; with
// nothing live it asks for a segment that is not there) by the segment move
// makes of it, keeping its object and start time, in a batch of its own. The
// reference corrects in place exactly when Correct should; the twin deletes
// and inserts.
func (r *editRig) correct(k int, move func(LeafEntry) geom.Segment) {
	old := LeafEntry{ID: r.nextID + 1000, Seg: geom.Segment{Start: make(geom.Point, r.cfg.Dims), End: make(geom.Point, r.cfg.Dims), T: geom.Interval{Lo: 1, Hi: 2}}}
	if len(r.live) > 0 {
		k %= len(r.live)
		old = r.live[k]
	}
	seg := move(old)
	r.lockstep = false // Correct searches with its probe where the reference searches by time
	gerr, werr := correctOne(r.got, old.ID, old.Seg.T.Lo, seg), r.want.refCorrect(old.ID, old.Seg.T.Lo, seg)
	terr := r.twin.Delete(old.ID, old.Seg.T.Lo)
	if terr == nil {
		terr = r.twin.Insert(old.ID, seg)
	}
	if gerr == nil {
		r.live[k] = LeafEntry{ID: old.ID, Seg: QuantizeSegment(seg)}
	}
	r.twinSays("correct", gerr, terr)
	r.same("correct", gerr, werr)
}

// correctOne is a correction in a batch of its own.
func correctOne(t *Tree, id ObjectID, tStart float64, seg geom.Segment) error {
	return t.one(func(b Batch) error { return b.Correct(id, tStart, seg) })
}

// twinSays fails unless the twin answered an operation as got did.
func (r *editRig) twinSays(what string, gerr, terr error) {
	r.t.Helper()
	if (gerr == nil) != (terr == nil) || (gerr != nil && gerr.Error() != terr.Error()) {
		r.t.Fatalf("op %d (%s): error %v, twin's %v", r.ops+1, what, gerr, terr)
	}
}

func (r *editRig) same(what string, gerr, werr error) {
	r.t.Helper()
	r.ops++
	if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
		r.t.Fatalf("op %d (%s): in-place error %v, reference error %v", r.ops, what, gerr, werr)
	}
	r.check()
}

// check compares everything observable about the two trees short of their
// page bytes, and — in lockstep — the pools' counters and the stores' bytes
// too. flushed compares the bytes after writing both pools back.
func (r *editRig) check() {
	r.t.Helper()
	g, w := r.got, r.want
	if g.root != w.root || g.height != w.height || g.size != w.size || g.modSeq != w.modSeq {
		r.t.Fatalf("op %d: in place root %d height %d size %d modSeq %d; reference root %d height %d size %d modSeq %d",
			r.ops, g.root, g.height, g.size, g.modSeq, w.root, w.height, w.size, w.modSeq)
	}
	if len(r.gu) != len(r.wu) || (len(r.gu) > 0 && !reflect.DeepEqual(r.gu, r.wu)) {
		r.t.Fatalf("op %d: listeners heard\n  in place:  %+v\n  reference: %+v", r.ops, r.gu, r.wu)
	}
	r.gu, r.wu = r.gu[:0], r.wu[:0]
	if g.size != len(r.live) {
		r.t.Fatalf("op %d: size %d, %d segments live", r.ops, g.size, len(r.live))
	}
	// Every view releases its lease and every edit commits: an operation
	// leaves no frame pinned, or a later miss could not reuse it.
	if gn, wn := pinnedFrames(g.pool), pinnedFrames(w.pool); gn != 0 || wn != 0 {
		r.t.Fatalf("op %d: %d frames pinned in place, %d in the reference, want 0", r.ops, gn, wn)
	}
	if r.lockstep {
		gp, wp := g.pool, w.pool
		if gp.WriteBacks() != wp.WriteBacks() || gp.Evictions() != wp.Evictions() || gp.Len() != wp.Len() {
			r.t.Fatalf("op %d: pool write-backs/evictions/frames %d/%d/%d, reference %d/%d/%d", r.ops,
				gp.WriteBacks(), gp.Evictions(), gp.Len(), wp.WriteBacks(), wp.Evictions(), wp.Len())
		}
		// Every step on a small tree; on a large one as often as keeps the
		// bytes compared per step about constant.
		if r.ops%(1+r.gs.NumPages()/16) == 0 {
			r.samePages("stores")
		}
	}
}

// pinnedFrames counts the frames a lease or edit still holds in pool.
func pinnedFrames(pool *pager.BufferPool) int {
	n := 0
	for _, s := range pool.SegmentStats() {
		n += s.Pinned
	}
	return n
}

func (r *editRig) flushed() {
	r.t.Helper()
	if err := errors.Join(r.got.pool.Flush(), r.want.pool.Flush()); err != nil {
		r.t.Fatal(err)
	}
	r.samePages("flushed stores")
	// Both trees are walked, so that both pools see the walk.
	if err := errors.Join(r.got.Validate(), r.want.Validate(), tightAndStamped(r.got), tightAndStamped(r.want)); err != nil {
		r.t.Fatalf("op %d: %v", r.ops, err)
	}
	r.sameAnswersAsTwin()
}

// sameAnswersAsTwin runs two range searches, one over everything and one
// over the middle of the grid run draws from, on all three trees (so that
// both pools see them): they must return the same segments.
func (r *editRig) sameAnswersAsTwin() {
	r.t.Helper()
	all, mid := make(geom.Box, r.cfg.Dims), make(geom.Box, r.cfg.Dims)
	for i := range all {
		all[i], mid[i] = geom.UniverseInterval(), geom.Interval{Lo: -8, Hi: 8}
	}
	for _, q := range []struct {
		spatial geom.Box
		tw      geom.Interval
	}{{all, geom.UniverseInterval()}, {mid, geom.Interval{Lo: -4, Hi: 4}}} {
		var twin []Match
		for i, tree := range []*Tree{r.twin, r.got, r.want} {
			ms, err := tree.RangeSearch(q.spatial, q.tw, SearchOptions{}, nil)
			if err != nil {
				r.t.Fatal(err)
			}
			sortMatches(ms)
			if i == 0 {
				twin = ms
			} else if !reflect.DeepEqual(ms, twin) {
				r.t.Fatalf("op %d: %v during %v: %d answers, the twin's %d differ", r.ops, q.spatial, q.tw, len(ms), len(twin))
			}
		}
	}
}

// sortMatches orders matches by object, then start time.
func sortMatches(ms []Match) {
	slices.SortFunc(ms, func(a, b Match) int {
		if a.ID != b.ID {
			return cmp.Compare(a.ID, b.ID)
		}
		return cmp.Compare(a.Seg.T.Lo, b.Seg.T.Lo)
	})
}

// tightAndStamped checks what the write path keeps beyond Validate, which
// files written by older code need not meet: every stored child box is
// the stored form of its child's MBR — the tight cover a delete's face test
// rests on — and every node's stamp is at least each of its children's, as
// NPDQ's timestamp guard needs.
func tightAndStamped(t *Tree) error {
	if t.root == pager.InvalidPage {
		return nil
	}
	box := make(geom.Box, t.cfg.boxDims())
	var walk func(id pager.PageID) error
	walk = func(id pager.PageID) error {
		return t.view(id, nil, func(v NodeView) error {
			for k := 0; !v.Leaf() && k < v.Len(); k++ {
				stored := v.entry(k)
				tight := make([]byte, len(stored))
				err := t.view(v.ChildID(k), nil, func(c NodeView) error {
					if c.Stamp() > v.Stamp() {
						return fmt.Errorf("node %d (stamp %d): child %d has stamp %d", id, v.Stamp(), c.id, c.Stamp())
					}
					c.MBR(box)
					return nil
				})
				if err != nil {
					return err
				}
				putChild(tight, v.dual, box, v.ChildID(k))
				if !bytes.Equal(stored, tight) {
					return fmt.Errorf("node %d: child %d stored as % x, its MBR encodes as % x", id, v.ChildID(k), stored, tight)
				}
				if err := walk(v.ChildID(k)); err != nil {
					return err
				}
			}
			return nil
		})
	}
	return walk(t.root)
}

func (r *editRig) samePages(what string) {
	r.t.Helper()
	for id := pager.PageID(0); ; id++ {
		gp, gerr := r.gs.LendPage(id)
		wp, werr := r.ws.LendPage(id)
		if errors.Is(gerr, pager.ErrPageOutOfRange) && errors.Is(werr, pager.ErrPageOutOfRange) {
			return
		}
		if (gerr == nil) != (werr == nil) {
			r.t.Fatalf("op %d: %s: page %d: in place %v, reference %v", r.ops, what, id, gerr, werr)
		}
		if !bytes.Equal(gp, wp) {
			at := 0
			for gp[at] == wp[at] {
				at++
			}
			r.t.Fatalf("op %d: %s: page %d differs from byte %d:\n  in place  % x\n  reference % x", r.ops, what, id, at, gp[at:min(at+32, len(gp))], wp[at:min(at+32, len(wp))])
		}
	}
}

// run interprets prog as operations: per op one opcode byte, then operand
// bytes (missing ones read as zero). Coordinates come off a coarse grid so
// that equal bounds, zero-area boxes, negative zero and ties in every
// ChooseLeaf and split heuristic are the common case, not the rare one.
func (r *editRig) run(prog []byte) {
	next := func() byte {
		if len(prog) == 0 {
			return 0
		}
		b := prog[0]
		prog = prog[1:]
		return b
	}
	coord := func() float64 {
		b := next()
		if b == 0x80 {
			return math.Copysign(0, -1)
		}
		return float64(int8(b)) / 4
	}
	for len(prog) > 0 {
		switch op := next(); op % 8 {
		case 0, 1, 2, 3:
			seg := geom.Segment{Start: make(geom.Point, r.cfg.Dims), End: make(geom.Point, r.cfg.Dims)}
			for i := range seg.Start {
				seg.Start[i] = coord()
				seg.End[i] = seg.Start[i] + float64(int8(next()))/16
			}
			seg.T.Lo = coord()
			seg.T.Hi = seg.T.Lo + float64(next()%16)/4
			r.insert(seg)
		case 5:
			if op < 8 {
				r.delete(0, true)
				break
			}
			// A correction: every coordinate moves by up to ±2, the end
			// time is drawn afresh. Zero operands keep the segment, which
			// fits wherever it lies.
			k := int(next())<<8 | int(next())
			r.correct(k, func(old LeafEntry) geom.Segment {
				seg := geom.Segment{Start: make(geom.Point, r.cfg.Dims), End: make(geom.Point, r.cfg.Dims), T: old.Seg.T}
				for i := range seg.Start {
					seg.Start[i] = old.Seg.Start[i] + float64(int8(next()))/64
					seg.End[i] = old.Seg.End[i] + float64(int8(next()))/64
				}
				seg.T.Hi = seg.T.Lo + float64(next()%16)/4
				return seg
			})
		default:
			r.delete(int(next())<<8|int(next()), false)
		}
		if r.ops%16 == 0 {
			r.flushed()
		}
	}
	r.flushed()
}

// editConfig spreads one byte over the write path's configuration space:
// both temporal layouts, Dims 1–3 and pool capacities 0 (pass-through),
// 8 (evicting constantly) and 1024.
func editConfig(sel uint8) (Config, int) {
	cfg := DefaultConfig()
	cfg.DualTime = sel&1 != 0
	cfg.Dims = 1 + int(sel>>1)%3
	return cfg, []int{0, 8, 1024}[int(sel>>5)%3]
}

// FuzzEditMatchesReference: whatever the sequence of inserts and deletes,
// editing pages in place leaves the same bytes on every page as decoding,
// mutating and re-encoding each node of the path — with the same root,
// height, size and modification sequence, the same notifications to update
// listeners in the same order, and a valid tree. One execution builds two
// trees, so run it with -fuzzminimizetime 1s: left at its default, the
// engine spends the whole budget minimising its first finds.
func FuzzEditMatchesReference(f *testing.F) {
	r := rand.New(rand.NewSource(21))
	for sel := 0; sel < 54; sel += 7 {
		prog := make([]byte, 600)
		r.Read(prog)
		f.Add(uint8(sel*5), uint16(r.Intn(400)), prog)
	}
	f.Add(uint8(0), uint16(0), []byte{4, 0, 0, 5, 6, 0, 0, 7, 0, 0, 0})
	f.Fuzz(func(t *testing.T, sel uint8, base uint16, prog []byte) {
		cfg, capacity := editConfig(sel)
		rig := newEditRig(t, cfg, capacity, gridEntries(cfg, int(base%2048), int64(sel)))
		rig.run(prog)
	})
}

// gridEntries is a bulk-load population on the same coarse grid run draws
// from.
func gridEntries(cfg Config, n int, seed int64) []LeafEntry {
	r := rand.New(rand.NewSource(seed))
	entries := make([]LeafEntry, n)
	for i := range entries {
		seg := geom.Segment{Start: make(geom.Point, cfg.Dims), End: make(geom.Point, cfg.Dims)}
		for d := range seg.Start {
			seg.Start[d] = float64(r.Intn(256)-128) / 4
			seg.End[d] = seg.Start[d] + float64(r.Intn(256)-128)/16
		}
		seg.T.Lo = float64(r.Intn(256)-128) / 4
		seg.T.Hi = seg.T.Lo + float64(r.Intn(16))/4
		entries[i] = LeafEntry{ID: ObjectID(i), Seg: seg}
	}
	return entries
}
