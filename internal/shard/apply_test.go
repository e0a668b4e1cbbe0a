package shard

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"dynq/internal/geom"
	"dynq/internal/pager"
	"dynq/internal/rtree"
)

// unitState is everything a portion can change on a one-shard engine: the
// tree's root, level, size and modification sequence, and the bytes of its
// first pages pages.
func unitState(t *testing.T, e *Engine, pages int) string {
	t.Helper()
	tree := e.Shard(0).Tree
	var b strings.Builder
	root, level, _ := tree.Root()
	fmt.Fprintf(&b, "root %d level %d size %d modSeq %d", root, level, tree.Size(), tree.ModSeq())
	for id := 0; id < pages; id++ {
		p, err := tree.Pool().Get(pager.PageID(id))
		fmt.Fprintf(&b, "\n%d %v: ", id, err)
		b.Write(p)
	}
	return b.String()
}

// moved is en's segment starting at t0 instead, shifted by dx.
func moved(en rtree.LeafEntry, t0, dx float64) geom.Segment {
	return geom.Segment{
		T:     geom.Interval{Lo: t0, Hi: en.Seg.T.Hi},
		Start: geom.Point{en.Seg.Start[0] + dx, en.Seg.Start[1]},
		End:   geom.Point{en.Seg.End[0] + dx, en.Seg.End[1]},
	}
}

// Apply is the one write loop, live and in replay. Each case runs a
// portion through Apply on a small tree (one root leaf) and compares the
// pages with those of a twin tree on which want ran as one batch — or, for
// a portion that must fail, with the pages before it. unlike, when set, is
// a batch whose pages the portion must NOT produce: it tells a correction
// (rewritten in its slot) from a delete and an insert (moved to the end).
func TestApplyReplayRules(t *testing.T) {
	base := testEntries(6)
	first := base[0]
	t0 := first.Seg.T.Lo
	missing := rtree.ObjectID(99)
	// Enough inserts to split the root leaf, so that a rolled-back
	// portion has allocated pages to give back.
	var grow []Update
	for _, en := range testEntries(300)[len(base):] {
		grow = append(grow, Update{ID: en.ID, Seg: en.Seg})
	}
	deleteMissing := append(grow[:len(grow):len(grow)], Update{ID: missing, T0: t0, Delete: true})
	correctMissing := []Update{{ID: missing, T0: t0, Delete: true}, {ID: missing, Seg: moved(first, t0, 1)}}

	cases := []struct {
		name    string
		part    []Update
		replay  bool
		wantErr error
		want    func(b rtree.Batch) error
		unlike  func(b rtree.Batch) error
	}{
		{
			name:    "live: a delete of a missing segment fails the portion",
			part:    deleteMissing,
			wantErr: rtree.ErrNotFound,
		},
		{
			name:    "live: a correction of a missing segment fails the portion",
			part:    correctMissing,
			wantErr: rtree.ErrNotFound,
		},
		{
			name:   "replay: a delete of a missing segment is skipped",
			part:   deleteMissing,
			replay: true,
			want: func(b rtree.Batch) error {
				for _, u := range grow {
					if err := b.Insert(u.ID, u.Seg); err != nil {
						return err
					}
				}
				return nil
			},
		},
		{
			name:   "replay: a correction of a missing segment inserts its replacement",
			part:   correctMissing,
			replay: true,
			want:   func(b rtree.Batch) error { return b.Insert(missing, moved(first, t0, 1)) },
		},
		{
			name: "a reinsertion at the same float32 start time is a correction",
			part: []Update{{ID: first.ID, T0: t0, Delete: true}, {ID: first.ID, Seg: moved(first, t0*(1+1e-12), 0.5)}},
			want: func(b rtree.Batch) error { return b.Correct(first.ID, t0, moved(first, t0*(1+1e-12), 0.5)) },
			unlike: func(b rtree.Batch) error {
				if err := b.Delete(first.ID, t0); err != nil {
					return err
				}
				return b.Insert(first.ID, moved(first, t0*(1+1e-12), 0.5))
			},
		},
		{
			name: "a reinsertion at another float32 start time is a delete and an insert",
			part: []Update{{ID: first.ID, T0: t0, Delete: true}, {ID: first.ID, Seg: moved(first, t0+0.25, 0.5)}},
			want: func(b rtree.Batch) error {
				if err := b.Delete(first.ID, t0); err != nil {
					return err
				}
				return b.Insert(first.ID, moved(first, t0+0.25, 0.5))
			},
			unlike: func(b rtree.Batch) error { return b.Correct(first.ID, t0, moved(first, t0+0.25, 0.5)) },
		},
	}
	// engineWith is a one-shard engine holding base, then what fn wrote
	// in one batch.
	engineWith := func(t *testing.T, fn func(b rtree.Batch) error) *Engine {
		t.Helper()
		e, err := New(rtree.DefaultConfig(), Options{Shards: 1}, memStores)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		insertAll(t, e, base)
		if fn != nil {
			b := e.Shard(0).Tree.Begin()
			if err := b.End(fn(b)); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := engineWith(t, nil)
			pages := e.Shard(0).Store().NumPages()
			before := unitState(t, e, pages)
			b := e.Shard(0).Tree.Begin()
			err := b.End(Apply(b, c.part, c.replay))
			if !errors.Is(err, c.wantErr) {
				t.Fatalf("Apply: %v, want %v", err, c.wantErr)
			}
			if c.wantErr != nil {
				if n := e.Shard(0).Store().NumPages(); n != pages {
					t.Fatalf("the failed portion left %d pages, found %d", n, pages)
				}
				if got := unitState(t, e, pages); got != before {
					t.Fatal("the failed portion left the tree changed")
				}
				return
			}
			got := e.Shard(0).Store().NumPages()
			twin := engineWith(t, c.want)
			if n := twin.Shard(0).Store().NumPages(); n != got {
				t.Fatalf("%d pages, the twin %d", got, n)
			}
			if unitState(t, e, got) != unitState(t, twin, got) {
				t.Fatal("pages differ from the twin's")
			}
			if c.unlike != nil && unitState(t, e, got) == unitState(t, engineWith(t, c.unlike), got) {
				t.Fatal("pages equal the unlike twin's: the case tells nothing apart")
			}
		})
	}
}
