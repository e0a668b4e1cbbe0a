package core

import (
	"errors"
	"testing"

	"dynq/internal/fault"
	"dynq/internal/geom"
	"dynq/internal/motion"
	"dynq/internal/pager"
	"dynq/internal/rtree"
	"dynq/internal/stats"
	"dynq/internal/trajectory"
)

// faultTree builds an index over a fault-injecting store (disarmed during
// the build).
func faultTree(t *testing.T, cfg rtree.Config) (*rtree.Tree, *fault.Store) {
	t.Helper()
	fs := fault.NewStore(pager.NewMemStore())
	segs, err := motion.GenerateSegments(motion.SimConfig{
		Objects: 200, Dims: 2, WorldSize: 100, Duration: 50,
		Speed: 1, SpeedStd: 0.2, UpdateMean: 1, UpdateStd: 0.25, Seed: 41,
	})
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]rtree.LeafEntry, len(segs))
	for i, s := range segs {
		entries[i] = rtree.LeafEntry{ID: rtree.ObjectID(s.ObjID), Seg: s.Seg}
	}
	tree, err := rtree.BulkLoad(cfg, fs, entries)
	if err != nil {
		t.Fatal(err)
	}
	return tree, fs
}

// Every engine must propagate injected read failures as errors — never a
// silent partial answer.
func TestEnginesPropagateReadFaults(t *testing.T) {
	win := geom.Box{{Lo: 20, Hi: 40}, {Lo: 20, Hi: 40}}
	tw := geom.Interval{Lo: 10, Hi: 12}

	t.Run("RangeSearch", func(t *testing.T) {
		tree, fs := faultTree(t, rtree.DefaultConfig())
		fs.Arm(2)
		defer fs.Disarm()
		var c stats.Counters
		if _, err := tree.RangeSearch(win, tw, rtree.SearchOptions{}, &c); !errors.Is(err, fault.ErrInjected) {
			t.Errorf("range search error = %v, want injected fault", err)
		}
	})
	t.Run("PDQ", func(t *testing.T) {
		tree, fs := faultTree(t, rtree.DefaultConfig())
		tr, err := trajectory.New([]trajectory.Key{
			{T: 5, Window: win},
			{T: 30, Window: win},
		})
		if err != nil {
			t.Fatal(err)
		}
		var c stats.Counters
		pdq, err := NewPDQ(tree, tr, PDQOptions{}, &c)
		if err != nil {
			t.Fatal(err)
		}
		defer pdq.Close()
		fs.Arm(2)
		defer fs.Disarm()
		_, err = pdq.Drain(5, 30)
		if !errors.Is(err, fault.ErrInjected) {
			t.Errorf("pdq error = %v, want injected fault", err)
		}
	})
	t.Run("NPDQ", func(t *testing.T) {
		cfg := rtree.DefaultConfig()
		cfg.DualTime = true
		tree, fs := faultTree(t, cfg)
		var c stats.Counters
		nq := NewNPDQ(tree, NPDQOptions{}, &c)
		fs.Arm(2)
		defer fs.Disarm()
		if _, err := nq.Next(win, tw); !errors.Is(err, fault.ErrInjected) {
			t.Errorf("npdq error = %v, want injected fault", err)
		}
	})
	t.Run("KNN", func(t *testing.T) {
		tree, fs := faultTree(t, rtree.DefaultConfig())
		fs.Arm(2)
		defer fs.Disarm()
		var c stats.Counters
		if _, err := KNN(tree, geom.Point{50, 50}, 10, 5, &c); !errors.Is(err, fault.ErrInjected) {
			t.Errorf("knn error = %v, want injected fault", err)
		}
	})
	t.Run("DistanceJoin", func(t *testing.T) {
		tree, fs := faultTree(t, rtree.DefaultConfig())
		fs.Arm(2)
		defer fs.Disarm()
		var c stats.Counters
		if _, err := DistanceJoin(tree, tree, 2, 10, &c); !errors.Is(err, fault.ErrInjected) {
			t.Errorf("join error = %v, want injected fault", err)
		}
	})
	t.Run("Insert", func(t *testing.T) {
		tree, fs := faultTree(t, rtree.DefaultConfig())
		fs.Arm(1)
		defer fs.Disarm()
		seg := geom.Segment{T: geom.Interval{Lo: 1, Hi: 2}, Start: geom.Point{1, 1}, End: geom.Point{2, 2}}
		if err := tree.Insert(99999, seg); !errors.Is(err, fault.ErrInjected) {
			t.Errorf("insert error = %v, want injected fault", err)
		}
	})
}

// After a transient fault clears, the same session keeps working and loses
// nothing: what the failed frame delivered before the fault, together with
// what its retry delivers, is what a session that never saw the fault
// delivers for the same frames. (The node whose read failed used to be
// dropped with everything beneath it.)
func TestEnginesRecoverAfterTransientFault(t *testing.T) {
	tree, fs := faultTree(t, rtree.DefaultConfig())
	tr, err := trajectory.New([]trajectory.Key{
		{T: 5, Window: geom.Box{{Lo: 10, Hi: 30}, {Lo: 10, Hi: 30}}},
		{T: 40, Window: geom.Box{{Lo: 30, Hi: 50}, {Lo: 10, Hi: 30}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	session := func() *PDQ {
		var c stats.Counters
		pdq, err := NewPDQ(tree, tr, PDQOptions{}, &c)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(pdq.Close)
		if _, err := pdq.Drain(5, 15); err != nil {
			t.Fatal(err)
		}
		return pdq
	}
	want, err := session().Drain(15, 40)
	if err != nil || len(want) == 0 {
		t.Fatalf("fault-free session: %d results, err %v", len(want), err)
	}

	pdq := session()
	fs.Arm(1)
	partial, err := pdq.Drain(15, 25)
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("expected injected fault, got %v", err)
	}
	fs.Disarm()
	rest, err := pdq.Drain(15, 40)
	if err != nil {
		t.Fatalf("session did not recover: %v", err)
	}
	got := append(partial, rest...)
	key := func(r Result) episodeKey { return episodeKey{id: r.ID, segStart: r.Seg.T.Lo, appear: r.Appear} }
	seen := map[episodeKey]int{}
	for _, r := range want {
		seen[key(r)]++
	}
	for _, r := range got {
		seen[key(r)]--
	}
	for k, n := range seen {
		if n != 0 {
			t.Errorf("episode %+v: delivered %d times fewer than without the fault", k, n)
		}
	}
	if len(got) != len(want) {
		t.Errorf("faulted session delivered %d+%d results, fault-free %d", len(partial), len(rest), len(want))
	}
}

func TestFaultStoreMechanics(t *testing.T) {
	fs := fault.NewStore(pager.NewMemStore())
	id, err := fs.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, pager.PageSize)
	if err := fs.WritePage(id, buf); err != nil {
		t.Fatal(err)
	}
	// Arm(3): two reads succeed, third and later fail.
	fs.Arm(3)
	for i := 0; i < 2; i++ {
		if err := fs.ReadPage(id, buf); err != nil {
			t.Fatalf("read %d should succeed: %v", i, err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := fs.ReadPage(id, buf); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("read should fail: %v", err)
		}
	}
	fs.Disarm()
	if err := fs.ReadPage(id, buf); err != nil {
		t.Fatalf("disarmed read failed: %v", err)
	}
	// Write faults.
	fs.ArmWrites(1)
	if err := fs.WritePage(id, buf); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("write should fail: %v", err)
	}
	fs.Disarm()
	if fs.NumPages() != 1 {
		t.Errorf("NumPages = %d", fs.NumPages())
	}
	if err := fs.Sync(); err != nil {
		t.Errorf("sync: %v", err)
	}
	if err := fs.Free(id); err != nil {
		t.Errorf("free: %v", err)
	}
	if err := fs.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
}
