package rtree

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"dynq/internal/pager"
)

// Every configuration the write path has — both temporal layouts, Dims 1–3,
// the three split policies, pool capacities 0, 8 and 1024 — run through a
// random program of inserts, deletes, refused deletes and path-hinted
// deletes, on trees started empty, at minimum fill (deletes dissolve nodes
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
			rig.delete(r.Intn(len(rig.live)), false, nil)
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
