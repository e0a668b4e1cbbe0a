package netq

import (
	"context"
	"errors"
	"math"
	"net"
	"sync"
	"testing"

	"dynq"
)

func startServer(t *testing.T, db dynq.Database) (addr string, stop func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(db)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv.Serve(l)
	}()
	return l.Addr().String(), func() {
		l.Close()
		srv.Close()
		wg.Wait()
	}
}

func testDB(t *testing.T) *dynq.DB {
	t.Helper()
	db, err := dynq.Open(dynq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	for i := 0; i < 50; i++ {
		x := float64(i * 2)
		err := db.Insert(dynq.ObjectID(i), dynq.Segment{
			T0: 0, T1: 100,
			From: []float64{x, 50}, To: []float64{x, 50},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestSnapshotOverTheWire(t *testing.T) {
	db := testDB(t)
	addr, stop := startServer(t, db)
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
	// Insert over the wire, then find it.
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
	// Stats round-trip.
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Segments != 51 {
		t.Errorf("stats segments = %d", st.Segments)
	}
	// KNN round-trip.
	nbs, err := cl.KNN([]float64{0, 50}, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(nbs) != 3 || nbs[0].ID != 0 {
		t.Errorf("knn = %v", nbs)
	}
}

// TestApplyUpdatesOverTheWire drives the batched write op: inserts and
// deletes in one round trip, in slice order, against both backends.
func TestApplyUpdatesOverTheWire(t *testing.T) {
	sharded, err := dynq.OpenSharded(dynq.ShardOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sharded.Close() })
	for name, db := range map[string]dynq.Database{
		"single":  testDB(t),
		"sharded": sharded,
	} {
		t.Run(name, func(t *testing.T) {
			addr, stop := startServer(t, db)
			defer stop()
			cl, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()

			seg := func(x float64) dynq.Segment {
				return dynq.Segment{T0: 0, T1: 1, From: []float64{x, x}, To: []float64{x, x}}
			}
			// One batch: insert three objects, then delete-and-reinsert the
			// middle one (order within the batch must hold).
			batch := []dynq.MotionUpdate{
				{ID: 1001, Segment: seg(200)},
				{ID: 1002, Segment: seg(201)},
				{ID: 1003, Segment: seg(202)},
				{ID: 1002, Segment: dynq.Segment{T0: 0}, Delete: true},
				{ID: 1002, Segment: seg(203)},
			}
			if err := cl.ApplyUpdates(batch); err != nil {
				t.Fatal(err)
			}
			rs, err := cl.Snapshot(dynq.Rect{Min: []float64{199, 199}, Max: []float64{204, 204}}, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(rs) != 3 {
				t.Fatalf("snapshot after batch found %d objects, want 3: %v", len(rs), rs)
			}
			// A delete of a missing segment fails the batch server-side.
			err = cl.ApplyUpdatesCtx(context.Background(),
				[]dynq.MotionUpdate{{ID: 424242, Segment: dynq.Segment{T0: 5}, Delete: true}},
				dynq.DurabilityDefault)
			if err == nil {
				t.Fatal("deleting a missing segment over the wire should fail")
			}
			if !errors.Is(err, dynq.ErrNotFound) {
				t.Fatalf("deleting a missing segment = %v, want ErrNotFound", err)
			}
		})
	}
}

// TestNonFiniteInputOverTheWire: NaN and infinities arrive from the
// network like any other float. The server refuses them with the typed
// error, stores nothing of the batch, and the connection stays usable.
func TestNonFiniteInputOverTheWire(t *testing.T) {
	sharded, err := dynq.OpenSharded(dynq.ShardOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sharded.Close() })
	for name, db := range map[string]dynq.Database{
		"single":  testDB(t),
		"sharded": sharded,
	} {
		t.Run(name, func(t *testing.T) {
			addr, stop := startServer(t, db)
			defer stop()
			cl, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()

			before := db.Len()
			good := dynq.Segment{T0: 0, T1: 1, From: []float64{300, 300}, To: []float64{301, 301}}
			bad := dynq.Segment{T0: math.NaN(), From: []float64{math.NaN(), 50}, To: []float64{3, math.Inf(1)}}
			if err := cl.ApplyUpdates([]dynq.MotionUpdate{{ID: 7001, Segment: bad}}); !errors.Is(err, dynq.ErrNonFinite) {
				t.Fatalf("insert of a NaN segment = %v, want ErrNonFinite", err)
			}
			err = cl.ApplyUpdates([]dynq.MotionUpdate{{ID: 7002, Segment: good}, {ID: 7003, Segment: bad}})
			if !errors.Is(err, dynq.ErrNonFinite) {
				t.Fatalf("batch with a NaN segment = %v, want ErrNonFinite", err)
			}
			view := dynq.Rect{Min: []float64{0, math.NaN()}, Max: []float64{400, 400}}
			if _, err := cl.Snapshot(view, 0, 1); !errors.Is(err, dynq.ErrNonFinite) {
				t.Fatalf("snapshot with a NaN view = %v, want ErrNonFinite", err)
			}
			view.Min[1] = math.Inf(-1) // unbounded is legal
			if _, err := cl.Snapshot(view, math.Inf(-1), math.Inf(1)); err != nil {
				t.Fatalf("snapshot with infinite bounds = %v", err)
			}
			if db.Len() != before {
				t.Fatalf("%d segments stored, were %d: part of a refused batch landed", db.Len(), before)
			}
		})
	}
}

// TestDurabilityWithoutWALOverTheWire: a client requesting an explicit
// durability level from a WAL-less server must get the typed ErrNoWAL
// back across the wire — not a silent in-memory ack — against both
// backends. The adaptive default still succeeds.
func TestDurabilityWithoutWALOverTheWire(t *testing.T) {
	sharded, err := dynq.OpenSharded(dynq.ShardOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sharded.Close() })
	for name, db := range map[string]dynq.Database{
		"single":  testDB(t),
		"sharded": sharded,
	} {
		t.Run(name, func(t *testing.T) {
			addr, stop := startServer(t, db)
			defer stop()
			cl, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()

			batch := []dynq.MotionUpdate{{ID: 5001, Segment: dynq.Segment{
				T0: 0, T1: 1, From: []float64{300, 300}, To: []float64{300, 300},
			}}}
			err = cl.ApplyUpdatesCtx(context.Background(), batch, dynq.DurabilityGroupCommit)
			if !errors.Is(err, dynq.ErrNoWAL) {
				t.Fatalf("group-commit against a WAL-less server = %v, want ErrNoWAL", err)
			}
			err = cl.ApplyUpdatesCtx(context.Background(), batch, dynq.DurabilitySync)
			if !errors.Is(err, dynq.ErrNoWAL) {
				t.Fatalf("sync against a WAL-less server = %v, want ErrNoWAL", err)
			}
			if err := cl.ApplyUpdates(batch); err != nil {
				t.Fatalf("default durability against a WAL-less server = %v, want nil", err)
			}
		})
	}
}

func TestPredictiveSessionOverTheWire(t *testing.T) {
	db := testDB(t)
	addr, stop := startServer(t, db)
	defer stop()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Fetch before start is an error.
	if _, err := cl.FetchPredictive(0, 1); err == nil {
		t.Error("fetch without a session should fail")
	}
	wps := []dynq.Waypoint{
		{T: 0, View: dynq.Rect{Min: []float64{0, 40}, Max: []float64{10, 60}}},
		{T: 10, View: dynq.Rect{Min: []float64{40, 40}, Max: []float64{50, 60}}},
	}
	if err := cl.StartPredictive(wps, false); err != nil {
		t.Fatal(err)
	}
	delivered := make(map[dynq.ObjectID]bool)
	total := 0
	for f := 0; f < 10; f++ {
		t0, t1 := float64(f), float64(f+1)
		rs, err := cl.FetchPredictive(t0, t1)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rs {
			delivered[r.ID] = true
		}
		total += len(rs)
	}
	if total == 0 {
		t.Error("predictive session returned nothing")
	}
	// Objects between x=0 and x=50 with y=50 should all have appeared.
	for i := 0; i <= 25; i++ {
		if !delivered[dynq.ObjectID(i)] {
			t.Errorf("object %d (x=%d) never delivered", i, i*2)
		}
	}
}

func TestNonPredictiveSessionOverTheWire(t *testing.T) {
	db := testDB(t)
	addr, stop := startServer(t, db)
	defer stop()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	view := dynq.Rect{Min: []float64{0, 0}, Max: []float64{30, 100}}
	first, err := cl.NonPredictive(view, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 {
		t.Fatal("first NPDQ snapshot empty")
	}
	repeat, err := cl.NonPredictive(view, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(repeat) != 0 {
		t.Errorf("same-window follow-up returned %d new results", len(repeat))
	}
	if err := cl.ResetNonPredictive(); err != nil {
		t.Fatal(err)
	}
	again, err := cl.NonPredictive(view, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(first) {
		t.Errorf("post-reset snapshot returned %d, want %d", len(again), len(first))
	}
}

func TestTwoClientsAreIsolated(t *testing.T) {
	db := testDB(t)
	addr, stop := startServer(t, db)
	defer stop()
	a, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	view := dynq.Rect{Min: []float64{0, 0}, Max: []float64{30, 100}}
	if _, err := a.NonPredictive(view, 0, 1); err != nil {
		t.Fatal(err)
	}
	// Client B's NPDQ session must be independent: same window still
	// returns the full answer.
	rs, err := b.NonPredictive(view, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 {
		t.Error("second client's first snapshot should be a full answer")
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	db := testDB(t)
	addr, stop := startServer(t, db)
	defer stop()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// "insert" and "track-at" are ops retired in protocol v4: a request
	// naming one travels by name and is refused like any unknown op.
	for _, op := range []Op{"bogus", "insert", "track-at"} {
		_, err := cl.roundTrip(context.Background(), Request{Op: op})
		var uo *UnknownOpError
		if !errors.As(err, &uo) || uo.Op != op {
			t.Errorf("op %q: err = %v, want *UnknownOpError", op, err)
		}
	}
	if _, err := cl.Snapshot(dynq.Rect{Min: []float64{0}, Max: []float64{1}}, 0, 1); err == nil {
		t.Error("bad rect should error")
	}
	// The connection survives request errors.
	if _, err := cl.Stats(); err != nil {
		t.Errorf("connection should survive a rejected request: %v", err)
	}
}
