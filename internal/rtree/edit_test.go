package rtree

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dynq/internal/geom"
	"dynq/internal/pager"
)

// Every configuration the write path has — both temporal layouts, Dims 1–3,
// the three split policies, pool capacities 0, 8 and 1024 — run through a
// random program of inserts, deletes, refused deletes and corrections,
// on trees started empty, at minimum fill (deletes dissolve nodes
// at once) and full (inserts split at once): the in-place write path and
// the decode-mutate-encode reference agree byte for byte after every step.
func TestEditMatchesReference(t *testing.T) {
	if raceDetector {
		t.Skip("single-goroutine byte comparison: nothing for the race detector, see raceDetector")
	}
	for sel := 0; sel < 18; sel++ {
		cfg, capacity := editConfig(uint8(sel&7 | sel/6%3<<5))
		cfg.Dims = 1 + sel%6/2
		cfg.DualTime = sel%2 == 1
		t.Run(fmt.Sprintf("dual=%v/dims=%d/quadratic/pool=%d", cfg.DualTime, cfg.Dims, capacity), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(sel)))
			for _, fill := range []float64{0, cfg.MinFill, 1} {
				cfg.BulkFill = max(fill, cfg.MinFill)
				n := 0
				if fill > 0 {
					n = 3 * cfg.MaxLeafEntries()
				}
				rig := newEditRig(t, cfg, capacity, gridEntries(cfg, n, int64(sel)))
				prog := make([]byte, 1000)
				r.Read(prog)
				if fill == 0 {
					// Grown from nothing: the first root, the first split.
					for _, e := range gridEntries(cfg, cfg.MaxLeafEntries()*3/2, int64(sel)) {
						rig.insert(e.Seg)
					}
				}
				if fill == cfg.MinFill {
					// Mostly deletions: the tree must condense to nothing.
					for i := 0; i < len(prog); i += 3 {
						prog[i] = 4 + prog[i]%4
					}
				}
				rig.run(prog)
			}
		})
	}
}

// The same on a tree tall enough for what small ones never do: internal
// nodes split, internal nodes dissolve and their subtrees are grafted back,
// the root shrinks by a level. Eight dimensions keep the fanout, and so the
// population a third level takes, small.
func TestEditMatchesReferenceTallTree(t *testing.T) {
	if raceDetector {
		t.Skip("single-goroutine byte comparison: nothing for the race detector, see raceDetector")
	}
	for _, dual := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.Dims = maxDims
		cfg.DualTime = dual
		cfg.BulkFill = 1
		base := gridEntries(cfg, cfg.MaxLeafEntries()*cfg.MaxInternalEntries()*5/4, 5)
		rig := newEditRig(t, cfg, 8, base)
		if rig.got.height != 3 {
			t.Fatalf("height %d, want 3", rig.got.height)
		}
		splits, grafts := 0, 0
		rig.got.OnUpdate(func(u Update) {
			if u.Kind == UpdateSubtree && u.Level > 0 {
				splits++
			}
		})
		r := rand.New(rand.NewSource(6))
		for _, e := range gridEntries(cfg, 1500, 7) {
			rig.insert(e.Seg)
		}
		r.Shuffle(len(rig.live), func(i, j int) { rig.live[i], rig.live[j] = rig.live[j], rig.live[i] })
		for len(rig.live) > 100 {
			before := rig.got.storeRef.NumPages()
			rig.delete(r.Intn(len(rig.live)), false)
			if rig.got.storeRef.NumPages() < before-1 {
				grafts++
			}
			if rig.ops%512 == 0 {
				rig.flushed()
			}
		}
		rig.flushed()
		if splits == 0 || rig.got.height >= 3 {
			t.Errorf("dual=%v: %d internal splits, final height %d: the tall-tree cases did not occur", dual, splits, rig.got.height)
		}
		t.Logf("dual=%v: %d ops, %d internal splits, %d multi-page frees, final height %d", dual, rig.ops, splits, grafts, rig.got.height)
	}
}

// A refused delete changes nothing: not a page, not the modification
// sequence (so "ModSeq moved" keeps meaning "some node carries that stamp").
func TestDeleteNotFoundLeavesTreeUntouched(t *testing.T) {
	for _, capacity := range []int{0, 8} {
		store := pager.NewMemStore()
		tree, err := BulkLoad(DefaultConfig(), store, benchEntries(2000, 1))
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.UseBuffer(capacity); err != nil {
			t.Fatal(err)
		}
		if err := tree.Insert(5000, benchEntries(1, 2)[0].Seg); err != nil {
			t.Fatal(err)
		}
		if err := tree.pool.Flush(); err != nil {
			t.Fatal(err)
		}
		seq := tree.ModSeq()
		var before [][]byte
		for id := pager.PageID(0); ; id++ {
			p, err := store.LendPage(id)
			if err != nil {
				break
			}
			before = append(before, append([]byte(nil), p...))
		}
		reseeds := 0
		tree.OnUpdate(func(Update) { reseeds++ })
		// An unknown object, and a known object at a start time it never had.
		if err := tree.Delete(9999, 50); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Delete of an unknown object: %v", err)
		}
		if err := tree.Delete(5000, -1); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Delete at an unknown start time: %v", err)
		}
		if got := tree.ModSeq(); got != seq {
			t.Errorf("pool=%d: ModSeq %d -> %d across refused deletes", capacity, seq, got)
		}
		if w := tree.pool.WriteBacks(); tree.pool.Flush() != nil || tree.pool.WriteBacks() != w {
			t.Errorf("pool=%d: refused deletes dirtied frames", capacity)
		}
		for id, want := range before {
			if p, err := store.LendPage(pager.PageID(id)); err != nil || string(p) != string(want) {
				t.Fatalf("pool=%d: page %d changed across refused deletes (err %v)", capacity, id, err)
			}
		}
		if reseeds != 0 {
			t.Errorf("pool=%d: %d notifications from refused deletes", capacity, reseeds)
		}
	}
}

// A delete shrinks a node's box only when the removed entry held one of its
// faces. On a three-level tree in both layouts, for each axis and side, two
// copies of a segment beyond the population on that side are inserted and
// deleted again. The first delete leaves the face held: no box moves. The
// second shrinks every box above it that keeps that face. Then segments off
// every face of their leaf's box are deleted: no stored box moves. Every
// node on each path takes the new stamp, and the pages stay byte for byte
// the reference writer's.
func TestDeleteShrinksOnlyAtFaces(t *testing.T) {
	if raceDetector {
		t.Skip("single-goroutine byte comparison: nothing for the race detector, see raceDetector")
	}
	for _, dual := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.DualTime = dual
		cfg.BulkFill = 0.9 // three levels, and room in every leaf for one more
		d := cfg.Dims
		r := rand.New(rand.NewSource(3))
		// Spatial extents within [-10, 10], start times in [0, 10], end
		// times in [20, 1000].
		base := make([]LeafEntry, cfg.MaxLeafEntries()*cfg.MaxInternalEntries()*5/4)
		for i := range base {
			seg := geom.Segment{Start: make(geom.Point, d), End: make(geom.Point, d)}
			for j := range seg.Start {
				seg.Start[j] = r.Float64()*19 - 9.5
				seg.End[j] = seg.Start[j] + r.Float64() - 0.5
			}
			seg.T = geom.Interval{Lo: r.Float64() * 10, Hi: 20 + r.Float64()*980}
			base[i] = LeafEntry{ID: ObjectID(i), Seg: seg}
		}
		rig := newEditRig(t, cfg, 0, base)
		if rig.got.height != 3 {
			t.Fatalf("dual=%v: height %d, want 3", dual, rig.got.height)
		}
		tree := rig.got
		// state reads the stamp of every node on path and the stored box of
		// every node below the root.
		state := func(path []pager.PageID) (boxes []string, stamps []uint64) {
			for j, id := range path {
				err := tree.View(id, nil, func(v NodeView) error {
					stamps = append(stamps, v.Stamp())
					for k := 0; j+1 < len(path) && k < v.Len(); k++ {
						if v.ChildID(k) == path[j+1] {
							boxes = append(boxes, string(v.entry(k)))
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			if len(boxes) != len(path)-1 {
				t.Fatalf("path %v is not a chain of children", path)
			}
			return boxes, stamps
		}
		// del deletes e on both trees and returns the path it lay on, with
		// the state of the path before and after.
		del := func(e LeafEntry) (path []pager.PageID, before, after []string) {
			path = pathTo(t, tree, e)
			before, _ = state(path)
			k := slices.IndexFunc(rig.live, func(l LeafEntry) bool { return l.ID == e.ID })
			rig.delete(k, false)
			rig.samePages("stores")
			after, stamps := state(path)
			for j, s := range stamps {
				if s != tree.ModSeq() {
					t.Errorf("dual=%v: delete of %d left node %d of its path at stamp %d, ModSeq %d", dual, e.ID, path[j], s, tree.ModSeq())
				}
			}
			return path, before, after
		}

		for axis := 0; axis < d+2; axis++ {
			for _, high := range []bool{false, true} {
				seg := geom.Segment{Start: make(geom.Point, d), End: make(geom.Point, d), T: geom.Interval{Lo: 5, Hi: 500}}
				switch {
				case axis < d && high:
					seg.Start[axis], seg.End[axis] = 100, 100
				case axis < d:
					seg.Start[axis], seg.End[axis] = -100, -100
				case axis == d && high:
					seg.T.Lo = 15
				case axis == d:
					seg.T.Lo = -100
				case high:
					seg.T.Hi = 5000
				default:
					seg.T.Hi = 6
				}
				// The single-axis layout stores the hull of the two time
				// axes: the start time's upper and the end time's lower
				// face are not kept.
				kept := dual || axis < d || (axis == d) != high
				rig.insert(seg)
				rig.insert(seg) // a twin: while it lives, the first is not alone on the face
				e, twin := rig.live[len(rig.live)-2], rig.live[len(rig.live)-1]
				if _, before, after := del(twin); !slices.Equal(before, after) {
					t.Errorf("dual=%v axis %d high=%v: deleting one of two segments on the face moved a box", dual, axis, high)
				}
				path, before, after := del(e)
				for j := range after {
					if shrank := before[j] != after[j]; shrank != kept {
						t.Errorf("dual=%v axis %d high=%v: box of node %d shrank %v, want %v", dual, axis, high, path[j+1], shrank, kept)
					}
				}
			}
		}

		// Segments off every face of their leaf's box.
		interior := 0
		box, leafBox := make(geom.Box, cfg.boxDims()), make(geom.Box, cfg.boxDims())
		for _, e := range slices.Clone(rig.live) {
			path := pathTo(t, tree, e)
			err := tree.View(path[len(path)-2], nil, func(v NodeView) error {
				for k := 0; k < v.Len(); k++ {
					if v.ChildID(k) == path[len(path)-1] {
						v.ChildBox(k, leafBox)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			err = tree.View(path[len(path)-1], nil, func(v NodeView) error {
				for k := 0; k < v.Len(); k++ {
					if id, _ := v.EntryKey(k); id == e.ID {
						v.EntryBox(k, box)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			inside := true
			for i := range box {
				inside = inside && box[i].Lo > leafBox[i].Lo && box[i].Hi < leafBox[i].Hi
			}
			if !inside {
				continue
			}
			if _, before, after := del(e); !slices.Equal(before, after) {
				t.Errorf("dual=%v: deleting %d, off every face of its leaf's box, moved a box above it", dual, e.ID)
			}
			if interior++; interior == 8 {
				break
			}
		}
		if interior < 8 {
			t.Errorf("dual=%v: only %d segments off every face", dual, interior)
		}
		rig.flushed()
	}
}
