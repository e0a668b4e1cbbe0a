package netq

import (
	"context"
	"errors"
	"testing"

	"dynq"
)

// testShardedDB mirrors testDB's population on a 3-shard engine.
func testShardedDB(t *testing.T) *dynq.DB {
	t.Helper()
	sdb, err := dynq.OpenSharded(dynq.ShardOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sdb.Close() })
	for i := 0; i < 50; i++ {
		x := float64(i * 2)
		err := sdb.Insert(dynq.ObjectID(i), dynq.Segment{
			T0: 0, T1: 100,
			From: []float64{x, 50}, To: []float64{x, 50},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return sdb
}

// TestShardedBackendOverTheWire serves a sharded DB behind the unchanged
// wire protocol: snapshot, insert, KNN, stats and a predictive session
// must behave exactly as they do on a single tree.
func TestShardedBackendOverTheWire(t *testing.T) {
	addr, stop := startServer(t, testShardedDB(t))
	defer stop()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	rs, err := cl.Snapshot(dynq.Rect{Min: []float64{0, 0}, Max: []float64{20, 100}}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 11 { // x = 0,2,...,20
		t.Errorf("snapshot found %d, want 11", len(rs))
	}
	if err := cl.ApplyUpdates([]dynq.MotionUpdate{{ID: 999, Segment: dynq.Segment{T0: 0, T1: 1, From: []float64{1, 1}, To: []float64{1, 1}}}}); err != nil {
		t.Fatal(err)
	}
	rs, err = cl.Snapshot(dynq.Rect{Min: []float64{0, 0}, Max: []float64{2, 2}}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].ID != 999 {
		t.Errorf("inserted object not found: %v", rs)
	}
	nbs, err := cl.KNN([]float64{0, 50}, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(nbs) != 3 || nbs[0].ID != 0 {
		t.Errorf("knn = %v", nbs)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Segments != 51 {
		t.Errorf("stats segments = %d", st.Segments)
	}

	wps := []dynq.Waypoint{
		{T: 0, View: dynq.Rect{Min: []float64{0, 40}, Max: []float64{10, 60}}},
		{T: 10, View: dynq.Rect{Min: []float64{40, 40}, Max: []float64{50, 60}}},
	}
	if err := cl.StartPredictive(wps, false); err != nil {
		t.Fatal(err)
	}
	delivered := make(map[dynq.ObjectID]bool)
	for f := 0; f < 10; f++ {
		rs, err := cl.FetchPredictive(float64(f), float64(f+1))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rs {
			delivered[r.ID] = true
		}
	}
	for i := 0; i <= 25; i++ {
		if !delivered[dynq.ObjectID(i)] {
			t.Errorf("object %d (x=%d) never delivered by sharded PDQ", i, i*2)
		}
	}
}

// TestClientContextCancellation checks that a cancelled context aborts a
// client call before it touches the wire, and that the connection stays
// usable afterwards (nothing was sent, so the stream is still in
// sync).
func TestClientContextCancellation(t *testing.T) {
	addr, stop := startServer(t, testDB(t))
	defer stop()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	view := dynq.Rect{Min: []float64{0, 0}, Max: []float64{100, 100}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cl.SnapshotCtx(ctx, view, 0, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("SnapshotCtx on cancelled ctx: %v", err)
	}
	if _, err := cl.KNNCtx(ctx, []float64{0, 50}, 1, 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("KNNCtx on cancelled ctx: %v", err)
	}
	if err := cl.ApplyUpdatesCtx(ctx, []dynq.MotionUpdate{{ID: 1000, Segment: dynq.Segment{T0: 0, T1: 1, From: []float64{3, 3}, To: []float64{3, 3}}}}, dynq.DurabilityDefault); !errors.Is(err, context.Canceled) {
		t.Fatalf("ApplyUpdatesCtx on cancelled ctx: %v", err)
	}

	// The aborted calls never hit the wire: the same connection still
	// answers, and the cancelled insert never happened.
	rs, err := cl.SnapshotCtx(context.Background(), view, 0, 1)
	if err != nil {
		t.Fatalf("connection unusable after cancelled calls: %v", err)
	}
	if len(rs) != 50 {
		t.Errorf("snapshot after cancel found %d, want 50", len(rs))
	}
}
