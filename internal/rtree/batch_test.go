package rtree

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dynq/internal/geom"
	"dynq/internal/pager"
)

// treeState is what a rolled-back batch must leave as it found it: the
// root, height, size and modification sequence, the store's page count,
// and the bytes of every page reachable from the root, read through the
// pool.
func treeState(t testing.TB, tree *Tree) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "root %d height %d size %d modSeq %d pages %d\n", tree.root, tree.height, tree.size, tree.modSeq, tree.storeRef.NumPages())
	err := tree.Read(func(r Reader) error {
		root, _, ok := r.Root()
		if !ok {
			return nil
		}
		var walk func(id pager.PageID) error
		walk = func(id pager.PageID) error {
			var children []pager.PageID
			err := r.View(id, nil, func(v NodeView) error {
				fmt.Fprintf(&b, "%d: ", id)
				b.Write(v.page)
				for k := 0; !v.Leaf() && k < v.Len(); k++ {
					children = append(children, v.ChildID(k))
				}
				return nil
			})
			for _, c := range children {
				err = errors.Join(err, walk(c))
			}
			return err
		}
		return walk(root)
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// batchOp is one operation of a batch: an insert of seg, or with del set a
// delete of (id, t0) — a correction to seg when seg is set too.
type batchOp struct {
	id  ObjectID
	t0  float64
	seg geom.Segment
	del bool
}

func (op batchOp) apply(b Batch) error {
	switch {
	case !op.del:
		return b.Insert(op.id, op.seg)
	case op.seg.Start != nil:
		return b.Correct(op.id, op.t0, op.seg)
	default:
		return b.Delete(op.id, op.t0)
	}
}

// batchOps is a random program of inserts on a few spots of the grid (so
// that leaves split), deletes (so that leaves dissolve) and corrections
// that fit or move up to ±2, each valid after the ones before it.
func batchOps(cfg Config, live []LeafEntry, n int, seed int64) []batchOp {
	r := rand.New(rand.NewSource(seed))
	live = append([]LeafEntry(nil), live...)
	spots := gridEntries(cfg, 3, seed)
	ops := make([]batchOp, 0, n)
	for id := ObjectID(1 << 20); len(ops) < n; id++ {
		switch k := r.Intn(len(live)); r.Intn(3) {
		case 0:
			seg := spots[r.Intn(len(spots))].Seg
			seg.T = geom.Interval{Lo: float64(id), Hi: float64(id) + 1}
			ops = append(ops, batchOp{id: id, seg: seg})
			live = append(live, LeafEntry{ID: id, Seg: QuantizeSegment(seg)})
		case 1:
			ops = append(ops, batchOp{id: live[k].ID, t0: live[k].Seg.T.Lo, del: true})
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		default:
			old := live[k]
			seg := geom.Segment{Start: make(geom.Point, cfg.Dims), End: make(geom.Point, cfg.Dims), T: old.Seg.T}
			for i := range seg.Start {
				seg.Start[i] = old.Seg.Start[i] + float64(r.Intn(9)-4)/2*float64(r.Intn(2))
				seg.End[i] = old.Seg.End[i] + float64(r.Intn(9)-4)/2*float64(r.Intn(2))
			}
			ops = append(ops, batchOp{id: old.ID, t0: old.Seg.T.Lo, seg: seg, del: true})
			live[k].Seg = QuantizeSegment(seg)
		}
	}
	return ops
}

// A batch that fails at any point — a delete of a missing segment, an
// insert or a correction with a malformed segment — and is rolled back
// leaves every reachable page, the root, height, size, modification
// sequence and page count as they were, notifies no listener and pins no
// frame, in both layouts, Dims 1–3 and pool capacities 0, 8 and 1024. On
// full leaves the first insert splits one, on leaves at minimum fill the
// first delete dissolves one, so the log holds whole pages, allocations
// and frees as well as edits. Committed whole, the same batch answers as
// the operations applied one by one do.
func TestRollbackRestoresTree(t *testing.T) {
	for sel := 0; sel < 12; sel++ {
		cfg := DefaultConfig()
		cfg.Dims, cfg.DualTime = 1+sel%3, sel%2 == 1
		cfg.BulkFill = []float64{1, cfg.MinFill}[sel/6]
		capacity := []int{0, 8, 1024}[sel/2%3]
		t.Run(fmt.Sprintf("dual=%v/dims=%d/fill=%v/pool=%d", cfg.DualTime, cfg.Dims, cfg.BulkFill, capacity), func(t *testing.T) {
			base := gridEntries(cfg, 3*cfg.MaxLeafEntries(), int64(sel))
			rig := newEditRig(t, cfg, capacity, base)
			tree := rig.got
			heard := 0
			kinds := map[UpdateKind]bool{}
			tree.OnUpdate(func(u Update) { heard, kinds[u.Kind] = heard+1, true })
			ops := batchOps(cfg, base, 40, int64(sel))
			malformed := geom.Segment{Start: make(geom.Point, cfg.Dims+1), End: make(geom.Point, cfg.Dims+1), T: geom.Interval{Lo: 0, Hi: 1}}
			empty := geom.Segment{Start: make(geom.Point, cfg.Dims), End: make(geom.Point, cfg.Dims), T: geom.Interval{Lo: 2, Hi: 1}}
			before := treeState(t, tree)
			for pos := 0; pos <= len(ops); pos++ {
				for _, bad := range []batchOp{
					{id: 1 << 30, t0: 1, del: true},
					{id: 1 << 30, seg: malformed},
					{id: base[pos%len(base)].ID, t0: base[pos%len(base)].Seg.T.Lo, seg: empty, del: true},
				} {
					b := tree.Begin()
					for i, op := range ops[:pos] {
						if err := op.apply(b); err != nil {
							t.Fatalf("op %d: %v", i, err)
						}
					}
					if err := bad.apply(b); err == nil {
						t.Fatalf("position %d: %+v succeeded", pos, bad)
					}
					if err := b.Rollback(); err != nil {
						t.Fatalf("position %d: rollback: %v", pos, err)
					}
					if after := treeState(t, tree); after != before {
						t.Fatalf("position %d, %+v: rolled back to\n%.400s\nwant\n%.400s", pos, bad, after, before)
					}
					if heard != 0 || pinnedFrames(tree.pool) != 0 {
						t.Fatalf("position %d: %d notifications, %d frames pinned after a rollback", pos, heard, pinnedFrames(tree.pool))
					}
				}
			}

			// Committed whole, the batch answers as the twin applying the
			// same operations one at a time does.
			b := tree.Begin()
			for _, op := range ops {
				if err := op.apply(b); err != nil {
					t.Fatal(err)
				}
			}
			if err := b.Commit(); err != nil {
				t.Fatal(err)
			}
			for _, op := range ops {
				if err := rig.twin.one(op.apply); err != nil {
					t.Fatal(err)
				}
			}
			if err := tree.Validate(); err != nil {
				t.Fatal(err)
			}
			all := make(geom.Box, cfg.Dims)
			for i := range all {
				all[i] = geom.UniverseInterval()
			}
			got, gerr := tree.RangeSearch(all, geom.UniverseInterval(), SearchOptions{}, nil)
			want, werr := rig.twin.RangeSearch(all, geom.UniverseInterval(), SearchOptions{}, nil)
			if err := errors.Join(gerr, werr); err != nil {
				t.Fatal(err)
			}
			sortMatches(got)
			sortMatches(want)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("committed batch: %d answers, one at a time %d", len(got), len(want))
			}
			// The committed batch split a node (full leaves) or freed one.
			if want := map[bool]UpdateKind{true: UpdateSubtree, false: UpdateReseed}[cfg.BulkFill == 1]; !kinds[want] {
				t.Fatalf("the committed batch notified %v, no kind %d", kinds, want)
			}
		})
	}
}
