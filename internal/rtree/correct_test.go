package rtree

import (
	"math/rand"
	"slices"
	"testing"

	"dynq/internal/geom"
	"dynq/internal/pager"
	"dynq/internal/stats"
)

// Each branch of Correct, in both layouts, against the reference writer and
// a delete-and-insert twin (editRig). On a three-level tree, for each
// spatial axis and the end-time axis, both sides: a segment beyond the
// population on that side alone holds the face of every box above it.
// Corrected to the geometry of a leaf sibling it fits, and is written in
// place — one stamp, one page write per level, one UpdateEntry — and every
// box above it that keeps the face shrinks. Corrected back out it no
// longer fits (where the face was kept): a delete and an insert, two
// stamps. A segment corrected to itself moves no box. A root leaf takes
// any replacement in place.
func TestCorrectBranches(t *testing.T) {
	if raceDetector {
		t.Skip("single-goroutine byte comparison: nothing for the race detector, see raceDetector")
	}
	for _, dual := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.DualTime = dual
		cfg.BulkFill = 0.9
		d := cfg.Dims
		r := rand.New(rand.NewSource(4))
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
		tree := rig.got
		if tree.height != 3 {
			t.Fatalf("dual=%v: height %d, want 3", dual, tree.height)
		}
		var mc stats.Counters
		tree.SetCounters(&mc)
		var heard []Update
		tree.OnUpdate(func(u Update) { heard = append(heard, u) })

		// boxes reads the stored box of every node below the root on the
		// path to e.
		boxes := func(e LeafEntry) (path []pager.PageID, out []string) {
			path = pathTo(t, tree, e)
			for j := 0; j+1 < len(path); j++ {
				err := tree.View(path[j], nil, func(v NodeView) error {
					for k := 0; k < v.Len(); k++ {
						if v.ChildID(k) == path[j+1] {
							out = append(out, string(v.entry(k)))
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			return path, out
		}
		// correct replaces e's segment by seg and checks the branch taken.
		correct := func(e LeafEntry, seg geom.Segment, inPlace bool) {
			t.Helper()
			k := slices.IndexFunc(rig.live, func(l LeafEntry) bool { return l.ID == e.ID })
			seq, writes := tree.ModSeq(), mc.Snapshot().PageWrites
			heard = heard[:0]
			rig.correct(k, func(LeafEntry) geom.Segment { return seg })
			stamps, w := tree.ModSeq()-seq, mc.Snapshot().PageWrites-writes
			switch {
			case inPlace && (stamps != 1 || w != int64(tree.height) || len(heard) != 1 || heard[0].Kind != UpdateEntry):
				t.Fatalf("dual=%v: correction of %d in place: %d stamps, %d page writes, heard %+v; want 1, %d, one UpdateEntry", dual, e.ID, stamps, w, heard, tree.height)
			case !inPlace && stamps != 2:
				t.Fatalf("dual=%v: correction of %d that does not fit: %d stamps, want 2 (a delete and an insert)", dual, e.ID, stamps)
			}
		}

		for _, axis := range []int{0, 1, d + 1} {
			for _, high := range []bool{false, true} {
				out := geom.Segment{Start: make(geom.Point, d), End: make(geom.Point, d), T: geom.Interval{Lo: 5, Hi: 500}}
				switch {
				case axis < d && high:
					out.Start[axis], out.End[axis] = 100, 100
				case axis < d:
					out.Start[axis], out.End[axis] = -100, -100
				case high:
					out.T.Hi = 5000
				default:
					out.T.Hi = 6
				}
				// The single-axis layout keeps the hull of the two time
				// axes: the end time's lower face is not stored.
				kept := dual || axis < d || high
				rig.insert(out)
				e := rig.live[len(rig.live)-1]
				path, before := boxes(e)
				// A sibling in the same leaf lends its geometry: inside the
				// leaf's box whatever it is.
				var in geom.Segment
				err := tree.View(path[len(path)-1], nil, func(v NodeView) error {
					for k := 0; k < v.Len(); k++ {
						if id, _ := v.EntryKey(k); id != e.ID {
							var sib LeafEntry
							v.Entry(k, &sib)
							in = sib.Seg
							in.T.Lo = e.Seg.T.Lo
							return nil
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				correct(e, in, true)
				e = rig.live[len(rig.live)-1]
				_, after := boxes(e)
				for j := range after {
					if shrank := before[j] != after[j]; shrank != kept {
						t.Errorf("dual=%v axis %d high=%v: box of node %d shrank %v, want %v", dual, axis, high, path[j+1], shrank, kept)
					}
				}
				// Back out: beyond the shrunk box, unless the layout never
				// stored the face.
				correct(e, out, !kept)
				rig.flushed()
			}
		}
		e := rig.live[r.Intn(len(rig.live))]
		_, before := boxes(e)
		correct(e, e.Seg, true)
		if _, after := boxes(e); !slices.Equal(before, after) {
			t.Errorf("dual=%v: a segment corrected to itself moved a box above it", dual)
		}
		rig.flushed()

		// A root leaf: anything fits.
		rig = newEditRig(t, cfg, 0, base[:10])
		tree = rig.got
		tree.SetCounters(&mc)
		tree.OnUpdate(func(u Update) { heard = append(heard, u) })
		far := geom.Segment{Start: geom.Point{500, 500}, End: geom.Point{600, 600}, T: geom.Interval{Lo: base[3].Seg.T.Lo, Hi: 9000}}
		correct(rig.live[3], far, true)
		rig.flushed()
		if tree.root == pager.InvalidPage || tree.height != 1 {
			t.Fatalf("dual=%v: root leaf gone (height %d)", dual, tree.height)
		}
	}
}

// pathTo returns the pages from the root to the leaf holding e, searched by
// start time.
func pathTo(t testing.TB, tree *Tree, e LeafEntry) []pager.PageID {
	t.Helper()
	tStart := float64(float32(e.Seg.T.Lo))
	var walk func(id pager.PageID) ([]pager.PageID, error)
	walk = func(id pager.PageID) (path []pager.PageID, err error) {
		err = tree.View(id, nil, func(v NodeView) error {
			for k := 0; k < v.Len() && path == nil && err == nil; k++ {
				if v.Leaf() {
					if eid, eStart := v.EntryKey(k); eid == e.ID && eStart == tStart {
						path = []pager.PageID{id}
					}
				} else if v.ChildStartTimes(k).ContainsValue(tStart) {
					var below []pager.PageID
					if below, err = walk(v.ChildID(k)); below != nil {
						path = append([]pager.PageID{id}, below...)
					}
				}
			}
			return err
		})
		return path, err
	}
	root, _, ok := tree.Root()
	var path []pager.PageID
	var err error
	if ok {
		path, err = walk(root)
	}
	if err != nil || path == nil {
		t.Fatalf("no path to %d: %v", e.ID, err)
	}
	return path
}
