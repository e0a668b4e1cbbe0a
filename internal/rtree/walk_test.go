package rtree

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	"dynq/internal/pager"
)

// TestWalkStepsMatchRun holds the budgeted walk to the whole one: stepping
// one page at a time reaches every page once and finds the shape Stats
// reports, on a tree grown by inserts and deletes.
func TestWalkStepsMatchRun(t *testing.T) {
	tree, entries := buildRandomTree(t, DefaultConfig(), 3000, 11)
	for _, e := range entries[:1500] {
		if err := tree.Delete(e.ID, e.Seg.T.Lo); err != nil {
			t.Fatal(err)
		}
	}
	want, err := tree.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if want.Height < 2 {
		t.Fatalf("tree of height %d tests nothing", want.Height)
	}
	var reads int
	w := NewWalk(tree.Meta(), int(pager.InvalidPage), func(id pager.PageID, buf []byte) (bool, error) {
		reads++
		return false, tree.View(id, nil, func(v NodeView) error {
			copy(buf, v.page)
			return nil
		})
	})
	for steps := 0; !w.Done(); steps++ {
		if n, err := w.Step(1); n != 1 || err != nil {
			t.Fatalf("step %d: %d pages, %v", steps, n, err)
		}
	}
	got, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("stepped walk found %+v, Stats %+v", got, want)
	}
	if pages := want.LeafNodes + want.InternalNodes; reads != pages || len(w.Reached()) != pages {
		t.Fatalf("%d reads, %d pages reached, tree has %d", reads, len(w.Reached()), pages)
	}
}

// TestWalkFindsEveryEscape moves one stored value of one entry out of its
// parent entry — every value of a leaf entry, either way, and every bound
// of a child box outwards, in both time layouts — and requires the walk to
// refuse the page; the untouched tree passes. A box check that skips an
// axis, an end point or a bound fails here.
func TestWalkFindsEveryEscape(t *testing.T) {
	for _, dual := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.DualTime = dual
		tree, err := BulkLoad(cfg, pager.NewMemStore(), benchEntries(20000, 3))
		if err != nil {
			t.Fatal(err)
		}
		if tree.Meta().Height < 3 {
			t.Fatalf("tree of height %d has no internal page below the root", tree.Meta().Height)
		}
		child := func(id pager.PageID) (c pager.PageID) {
			if err := tree.View(id, nil, func(v NodeView) error { c = v.ChildID(0); return nil }); err != nil {
				t.Fatal(err)
			}
			return c
		}
		root, _, _ := tree.Root()
		inner := child(root)
		leaf := child(inner)
		// walk checks the tree with entry 0 of page id edited by edit.
		walk := func(id pager.PageID, edit func(e []byte)) error {
			w := NewWalk(tree.Meta(), int(pager.InvalidPage), func(at pager.PageID, buf []byte) (bool, error) {
				return false, tree.View(at, nil, func(v NodeView) error {
					copy(buf, v.page)
					if at == id {
						edit(buf[nodeHeaderSize : nodeHeaderSize+int(v.stride)])
					}
					return nil
				})
			})
			_, err := w.Run()
			return err
		}
		if err := walk(leaf, func([]byte) {}); err != nil {
			t.Fatalf("dual %v: the untouched tree fails: %v", dual, err)
		}
		d := cfg.Dims
		type slot struct {
			page pager.PageID
			off  int
			to   []float32
		}
		var slots []slot
		both := []float32{-1e30, 1e30}
		for off := 8; off < 16+8*d; off += 4 { // a segment's end points, then its validity
			slots = append(slots, slot{leaf, off, both})
		}
		extents := d + 1
		if dual {
			extents++
		}
		for x := 0; x < extents; x++ { // a child box's extents: spatial, then time
			slots = append(slots, slot{inner, 8 * x, []float32{-1e30}}, slot{inner, 8*x + 4, []float32{1e30}})
		}
		for _, sl := range slots {
			for _, to := range sl.to {
				what := fmt.Sprintf("dual %v page %d offset %d set to %g", dual, sl.page, sl.off, to)
				err := walk(sl.page, func(e []byte) { binary.LittleEndian.PutUint32(e[sl.off:], math.Float32bits(to)) })
				if err == nil || !strings.Contains(err.Error(), "escapes") {
					t.Errorf("%s: walk says %v, want an escape", what, err)
				}
			}
		}
	}
}
