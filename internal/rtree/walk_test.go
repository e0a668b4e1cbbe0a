package rtree

import (
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
