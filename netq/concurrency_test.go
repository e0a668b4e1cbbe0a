package netq

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"dynq"
)

// startServerWith is startServer with a hook to configure the server
// before it begins accepting.
func startServerWith(t *testing.T, db dynq.Database, configure func(*Server)) (addr string, srv *Server, stop func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv = NewServer(db)
	if configure != nil {
		configure(srv)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv.Serve(l)
	}()
	return l.Addr().String(), srv, func() {
		l.Close()
		srv.Close()
		wg.Wait()
	}
}

// TestConcurrentClientsMatchSerial runs many clients issuing snapshot
// and KNN queries at once and checks every answer against the direct
// single-threaded result.
func TestConcurrentClientsMatchSerial(t *testing.T) {
	db := testDB(t)
	// Queue sized for the client count: on a single-CPU host the default
	// gate is 1 wide with a queue of 4, which 8 clients would overflow.
	addr, _, stop := startServerWith(t, db, func(s *Server) {
		s.WithConcurrency(runtime.GOMAXPROCS(0), 2*8)
	})
	defer stop()

	view := dynq.Rect{Min: []float64{0, 0}, Max: []float64{100, 100}}
	want, err := db.Snapshot(view, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	wantKNN, err := db.KNN([]float64{50, 50}, 10, 5)
	if err != nil {
		t.Fatal(err)
	}

	const clients, rounds = 8, 25
	errCh := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				errCh <- err
				return
			}
			defer cl.Close()
			for r := 0; r < rounds; r++ {
				got, err := cl.Snapshot(view, 0, 100)
				if err != nil {
					errCh <- err
					return
				}
				if !sameIDs(got, want) {
					errCh <- fmt.Errorf("concurrent snapshot returned %d results, want %d", len(got), len(want))
					return
				}
				nbs, err := cl.KNN([]float64{50, 50}, 10, 5)
				if err != nil {
					errCh <- err
					return
				}
				if len(nbs) != len(wantKNN) {
					errCh <- fmt.Errorf("concurrent KNN returned %d neighbors, want %d", len(nbs), len(wantKNN))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

func sameIDs(a, b []dynq.Result) bool {
	if len(a) != len(b) {
		return false
	}
	ids := func(rs []dynq.Result) []dynq.ObjectID {
		out := make([]dynq.ObjectID, len(rs))
		for i, r := range rs {
			out[i] = r.ID
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	x, y := ids(a), ids(b)
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

// TestAdmissionControlOverload fills the read gate and checks that the
// next read is rejected with the typed overload error, round-tripped
// through the wire, while a write op still passes.
func TestAdmissionControlOverload(t *testing.T) {
	db := testDB(t)
	addr, srv, stop := startServerWith(t, db, func(s *Server) {
		s.WithConcurrency(1, 1)
	})
	defer stop()

	// Occupy the only execution slot and the only queue slot directly,
	// making the outcome deterministic without timing games.
	srv.readSem <- struct{}{}
	srv.queued.Add(1)

	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	view := dynq.Rect{Min: []float64{0, 0}, Max: []float64{100, 100}}
	if _, err := cl.Snapshot(view, 0, 100); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("snapshot with full gate: err = %v, want ErrOverloaded", err)
	}
	// Writes bypass the read gate entirely.
	if err := cl.ApplyUpdates([]dynq.MotionUpdate{{ID: 999, Segment: dynq.Segment{T0: 0, T1: 1, From: []float64{1, 1}, To: []float64{2, 2}}}}); err != nil {
		t.Fatalf("insert with full read gate: %v", err)
	}
	// Session ops (NPDQ lives per connection) bypass it too.
	if _, err := cl.NonPredictive(view, 0, 100); err != nil {
		t.Fatalf("npdq with full read gate: %v", err)
	}

	// Releasing the gate lets reads through again, and the rejection was
	// counted.
	srv.queued.Add(-1)
	<-srv.readSem
	if _, err := cl.Snapshot(view, 0, 100); err != nil {
		t.Fatalf("snapshot after release: %v", err)
	}
	if got := srv.metrics.overloads.Value(); got != 1 {
		t.Fatalf("overload counter = %d, want 1", got)
	}
}

// TestAdmissionControlQueueing verifies a read waits (rather than being
// rejected) while the queue has room, and proceeds once a slot frees up.
func TestAdmissionControlQueueing(t *testing.T) {
	db := testDB(t)
	addr, srv, stop := startServerWith(t, db, func(s *Server) {
		s.WithConcurrency(1, 2)
	})
	defer stop()

	srv.readSem <- struct{}{} // hold the only slot

	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	view := dynq.Rect{Min: []float64{0, 0}, Max: []float64{100, 100}}
	done := make(chan error, 1)
	go func() {
		_, err := cl.Snapshot(view, 0, 100)
		done <- err
	}()

	// The snapshot is queued; free the slot and it must complete.
	select {
	case err := <-done:
		t.Fatalf("snapshot finished while the gate was held (err=%v)", err)
	default:
	}
	<-srv.readSem
	if err := <-done; err != nil {
		t.Fatalf("queued snapshot failed: %v", err)
	}
}

// TestSegmentHitRatioGauges serves a buffered, file-backed database and
// checks the per-segment buffer gauges land on /metrics after traffic.
func TestSegmentHitRatioGauges(t *testing.T) {
	db, err := dynq.Open(dynq.Options{Path: t.TempDir() + "/seg.dqi", BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	for i := 0; i < 200; i++ {
		x := float64(i % 100)
		if err := db.Insert(dynq.ObjectID(i), dynq.Segment{
			T0: 0, T1: 100, From: []float64{x, 50}, To: []float64{x, 50},
		}); err != nil {
			t.Fatal(err)
		}
	}
	addr, srv, stop := startServerWith(t, db, nil)
	defer stop()

	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 3; i++ {
		if _, err := cl.Snapshot(dynq.Rect{Min: []float64{0, 0}, Max: []float64{100, 100}}, 0, 100); err != nil {
			t.Fatal(err)
		}
	}

	var buf strings.Builder
	srv.Registry().WritePrometheus(&buf)
	out := buf.String()
	if !strings.Contains(out, `pager_buffer_segment_hit_ratio{segment="0"}`) {
		t.Fatalf("per-segment hit-ratio gauges missing from scrape:\n%s", out)
	}
	segs := db.BufferSegments()
	if len(segs) == 0 {
		t.Fatal("buffered DB reports no segments")
	}
	var traffic int64
	for _, s := range segs {
		traffic += s.Hits + s.Misses
	}
	if traffic == 0 {
		t.Error("segments saw no traffic after buffered snapshots")
	}
}

// TestWithConcurrencyUnlimited pins the <=0 escape hatch.
func TestWithConcurrencyUnlimited(t *testing.T) {
	srv := NewServer(testDB(t))
	if srv.MaxConcurrent() == 0 {
		t.Fatal("default server has no read bound")
	}
	srv.WithConcurrency(0, 0)
	if srv.readSem != nil || srv.MaxConcurrent() != 0 {
		t.Fatal("WithConcurrency(0,0) did not remove the bound")
	}
	if release, err := srv.admitRead(); err != nil || release == nil {
		t.Fatalf("unlimited admitRead: release nil=%v err=%v", release == nil, err)
	}
}
