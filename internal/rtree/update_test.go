package rtree

import (
	"math/rand"
	"testing"

	"dynq/internal/geom"
	"dynq/internal/pager"
)

func TestUpdateNotificationEntryOnly(t *testing.T) {
	tree, _ := New(DefaultConfig(), pager.NewMemStore())
	var updates []Update
	tree.OnUpdate(func(u Update) { updates = append(updates, u) })
	seg := geom.Segment{T: geom.Interval{Lo: 0, Hi: 1}, Start: geom.Point{1, 1}, End: geom.Point{2, 2}}
	if err := tree.Insert(1, seg); err != nil {
		t.Fatal(err)
	}
	if len(updates) != 1 {
		t.Fatalf("got %d updates, want 1", len(updates))
	}
	u := updates[0]
	if u.Kind != UpdateEntry || u.Entry.ID != 1 {
		t.Errorf("update = %+v", u)
	}
}

func TestUpdateNotificationOnLeafSplit(t *testing.T) {
	tree, _ := New(DefaultConfig(), pager.NewMemStore())
	r := rand.New(rand.NewSource(1))
	var subtreeUpdates []Update
	tree.OnUpdate(func(u Update) {
		if u.Kind == UpdateSubtree {
			subtreeUpdates = append(subtreeUpdates, u)
		}
	})
	// 127 entries fill one leaf; the 128th splits it (and grows the root).
	for i := 0; i <= DefaultConfig().MaxLeafEntries(); i++ {
		if err := tree.Insert(ObjectID(i), randSegment(r)); err != nil {
			t.Fatal(err)
		}
	}
	if len(subtreeUpdates) != 1 {
		t.Fatalf("got %d subtree updates, want 1 (first leaf split)", len(subtreeUpdates))
	}
	u := subtreeUpdates[0]
	if u.Level != 0 {
		t.Errorf("split node level = %d, want 0", u.Level)
	}
	// The notified subtree must contain the entry that caused the split
	// (the forced-path property).
	n, err := tree.Load(u.Node, nil)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range n.Entries {
		if e.ID == ObjectID(DefaultConfig().MaxLeafEntries()) {
			found = true
		}
	}
	if !found {
		t.Error("the inserting entry must live in the newly created node")
	}
}

// The central guarantee of Section 4.1's update management: after any
// insertion, the notified region (segment or subtree) covers the inserted
// segment, so a running PDQ can find it without re-reading anything else.
func TestUpdateNotificationCoversInsertedSegment(t *testing.T) {
	tree, _ := New(DefaultConfig(), pager.NewMemStore())
	r := rand.New(rand.NewSource(2))
	var last []Update
	tree.OnUpdate(func(u Update) { last = append(last, u) })
	for i := 0; i < 4000; i++ {
		last = last[:0]
		seg := QuantizeSegment(randSegment(r))
		if err := tree.Insert(ObjectID(i), seg); err != nil {
			t.Fatal(err)
		}
		if len(last) != 1 {
			t.Fatalf("insert %d produced %d notifications, want exactly 1", i, len(last))
		}
		u := last[0]
		switch u.Kind {
		case UpdateEntry:
			if u.Entry.ID != ObjectID(i) || u.Entry.Seg.T != seg.T {
				t.Fatalf("insert %d: wrong entry notification %+v", i, u.Entry)
			}
		case UpdateSubtree:
			if !u.Box.Contains((LeafEntry{ID: ObjectID(i), Seg: seg}).Box(2)) {
				t.Fatalf("insert %d: notified subtree box %v does not cover the new segment", i, u.Box)
			}
			// Walk the notified subtree: the new segment must be inside.
			if !subtreeHasEntry(t, tree, u.Node, ObjectID(i), seg.T.Lo) {
				t.Fatalf("insert %d: notified subtree does not contain the new segment", i)
			}
		}
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

func subtreeHasEntry(t *testing.T, tree *Tree, id pager.PageID, obj ObjectID, tLo float64) bool {
	t.Helper()
	n, err := tree.Load(id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n.Leaf() {
		for _, e := range n.Entries {
			if e.ID == obj && e.Seg.T.Lo == tLo {
				return true
			}
		}
		return false
	}
	for _, ch := range n.Children {
		if subtreeHasEntry(t, tree, ch.ID, obj, tLo) {
			return true
		}
	}
	return false
}

func TestModSeqAndStamps(t *testing.T) {
	tree, _ := New(DefaultConfig(), pager.NewMemStore())
	r := rand.New(rand.NewSource(3))
	if tree.ModSeq() != 0 {
		t.Error("fresh tree should have ModSeq 0")
	}
	for i := 0; i < 300; i++ {
		tree.Insert(ObjectID(i), randSegment(r))
	}
	seqBefore := tree.ModSeq()
	if seqBefore != 300 {
		t.Errorf("ModSeq = %d, want 300", seqBefore)
	}
	// Root stamp reflects the last insertion that touched it. Any
	// insertion touches the root (MBR update), so its stamp is current.
	root, _, ok := tree.Root()
	if !ok {
		t.Fatal("tree should have a root")
	}
	n, err := tree.Load(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n.Stamp != seqBefore {
		t.Errorf("root stamp = %d, want %d", n.Stamp, seqBefore)
	}
	// A node untouched since some past sequence number retains its old
	// stamp: check that leaf stamps are all ≤ seq and at least one is old.
	var stamps []uint64
	var walk func(id pager.PageID)
	walk = func(id pager.PageID) {
		n, err := tree.Load(id, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n.Leaf() {
			stamps = append(stamps, n.Stamp)
			return
		}
		for _, ch := range n.Children {
			walk(ch.ID)
		}
	}
	walk(root)
	anyOld := false
	for _, s := range stamps {
		if s > seqBefore {
			t.Errorf("leaf stamp %d exceeds ModSeq %d", s, seqBefore)
		}
		if s < seqBefore {
			anyOld = true
		}
	}
	if len(stamps) > 1 && !anyOld {
		t.Error("expected at least one leaf not touched by the last insert")
	}
}
