package dynq

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"
)

// stressSegment places a static object at a deterministic position
// derived from its id, visible over the whole test horizon.
func stressSegment(id ObjectID) Segment {
	x := float64(id%97) + 1
	y := float64(id%89) + 1
	return Segment{T0: 0, T1: 100, From: []float64{x, y}, To: []float64{x, y}}
}

// runMixedStress hammers one database with concurrent Snapshot/KNN
// readers and Insert writers, checking every intermediate answer for
// atomicity (only complete objects, never torn state) and the final
// state for equivalence with a serialized replay of the same inserts.
// Run under -race this doubles as the concurrency suite's memory-safety
// check for the whole read path.
func runMixedStress(t *testing.T, db, replay *DB) {
	t.Helper()
	const (
		baseObjects = 100
		writers     = 4
		perWriter   = 50
		readers     = 4
		reads       = 40
	)
	view := Rect{Min: []float64{0, 0}, Max: []float64{100, 100}}

	for i := 0; i < baseObjects; i++ {
		if err := db.Insert(ObjectID(i), stressSegment(ObjectID(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Writer w inserts ids 10000+w*1000+j; anything else in a snapshot is
	// a corruption.
	expected := func(id ObjectID) bool {
		return id < baseObjects || (id >= 10000 && id < 10000+writers*1000)
	}

	errCh := make(chan error, writers+readers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < perWriter; j++ {
				id := ObjectID(10000 + w*1000 + j)
				if err := db.Insert(id, stressSegment(id)); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				rs, err := db.Snapshot(view, 0, 100)
				if err != nil {
					errCh <- err
					return
				}
				if len(rs) < baseObjects {
					errCh <- fmt.Errorf("snapshot lost base objects: %d < %d", len(rs), baseObjects)
					return
				}
				for _, res := range rs {
					if !expected(res.ID) {
						errCh <- fmt.Errorf("snapshot returned unknown object %d", res.ID)
						return
					}
				}
				nbs, err := db.KNN([]float64{50, 50}, 50, 5)
				if err != nil {
					errCh <- err
					return
				}
				if len(nbs) != 5 {
					errCh <- fmt.Errorf("KNN returned %d neighbors, want 5", len(nbs))
					return
				}
				for _, n := range nbs {
					if !expected(n.ID) {
						errCh <- fmt.Errorf("KNN returned unknown object %d", n.ID)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Serialized replay: the same population inserted one-by-one must
	// yield the identical final answer set.
	for i := 0; i < baseObjects; i++ {
		if err := replay.Insert(ObjectID(i), stressSegment(ObjectID(i))); err != nil {
			t.Fatal(err)
		}
	}
	for w := 0; w < writers; w++ {
		for j := 0; j < perWriter; j++ {
			id := ObjectID(10000 + w*1000 + j)
			if err := replay.Insert(id, stressSegment(id)); err != nil {
				t.Fatal(err)
			}
		}
	}
	got, err := db.Snapshot(view, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	want, err := replay.Snapshot(view, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	ids := func(rs []Result) []ObjectID {
		out := make([]ObjectID, len(rs))
		for i, r := range rs {
			out[i] = r.ID
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	g, w := ids(got), ids(want)
	if len(g) != len(w) {
		t.Fatalf("concurrent run has %d objects, serialized replay has %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("object sets diverge at %d: %d vs %d", i, g[i], w[i])
		}
	}
}

func TestConcurrentMixedReadWrite(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	replay, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer replay.Close()
	runMixedStress(t, db, replay)
}

func TestConcurrentMixedReadWriteSharded(t *testing.T) {
	db, err := OpenSharded(ShardOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	replay, err := OpenSharded(ShardOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer replay.Close()
	runMixedStress(t, db, replay)
}

// TestConcurrentReadersBufferedFile drives concurrent readers over a
// file-backed, buffered index: the lock-sharded buffer pool is on the
// hot path here, so under -race this exercises its segment locking
// against real page traffic.
func TestConcurrentReadersBufferedFile(t *testing.T) {
	db, err := Open(Options{Path: t.TempDir() + "/stress.dqi", BufferPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const n = 300
	for i := 0; i < n; i++ {
		if err := db.Insert(ObjectID(i), stressSegment(ObjectID(i))); err != nil {
			t.Fatal(err)
		}
	}
	view := Rect{Min: []float64{0, 0}, Max: []float64{100, 100}}
	want, err := db.Snapshot(view, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 8)
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				rs, err := db.Snapshot(view, 0, 100)
				if err != nil {
					errCh <- err
					return
				}
				if len(rs) != len(want) {
					errCh <- fmt.Errorf("buffered snapshot returned %d, want %d", len(rs), len(want))
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
	bs := db.BufferStats()
	if bs.Hits+bs.Misses == 0 {
		t.Error("buffer pool saw no traffic; test is not exercising the sharded pool")
	}
	if len(db.BufferSegments()) == 0 {
		t.Error("no buffer segments reported")
	}
}

// TestConcurrentEditsBufferedPool runs snapshots and live PDQ and NPDQ
// sessions beside a stream of ApplyUpdates batches on a small buffered
// pool. Writers edit the pool's frames where they lie — frames are not
// copy-on-write — so what keeps a reader from seeing a half-edited page is
// the tree lock alone; under -race this is the proof that every lease
// lives inside it. The batches are dead-reckoning corrections (delete +
// insert) over enough objects to split and dissolve nodes and to keep the
// 6-frame pool evicting.
func TestConcurrentEditsBufferedPool(t *testing.T) {
	db, err := Open(Options{Path: t.TempDir() + "/edits.dqi", BufferPages: 6, DualTimeAxes: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const (
		anchors = 300 // never touched by the writer: every full-view answer holds them all
		movers  = 400
		rounds  = 8
		batch   = 32
	)
	mover := func(k, version int) MotionUpdate {
		x, y := float64(k%97)+1, float64((k+version)%89)+1
		return MotionUpdate{ID: ObjectID(10000 + k), Segment: Segment{T0: float64(version % 50), T1: 100, From: []float64{x, y}, To: []float64{y, x}}}
	}
	var load []MotionUpdate
	for i := 0; i < anchors; i++ {
		load = append(load, MotionUpdate{ID: ObjectID(i), Segment: stressSegment(ObjectID(i))})
	}
	for k := 0; k < movers; k++ {
		load = append(load, mover(k, 0))
	}
	if err := db.BulkLoadUpdates(load); err != nil {
		t.Fatal(err)
	}
	view := Rect{Min: []float64{0, 0}, Max: []float64{100, 100}}
	known := func(id ObjectID) bool { return id < anchors || (id >= 10000 && id < 10000+movers) }
	countAnchors := func(rs []Result, seen map[ObjectID]bool) error {
		for _, r := range rs {
			if !known(r.ID) {
				return fmt.Errorf("unknown object %d in an answer", r.ID)
			}
			if r.ID < anchors {
				seen[r.ID] = true
			}
		}
		return nil
	}

	done := make(chan struct{})
	errCh := make(chan error, 4)
	var wg sync.WaitGroup
	reader := func(name string, frame func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					if i >= 5 {
						return
					}
				default:
				}
				if err := frame(i); err != nil {
					errCh <- fmt.Errorf("%s, pass %d: %w", name, i, err)
					return
				}
			}
		}()
	}
	reader("snapshot", func(int) error {
		rs, err := db.Snapshot(view, 0, 100)
		if err != nil {
			return err
		}
		seen := map[ObjectID]bool{}
		if err := countAnchors(rs, seen); err != nil {
			return err
		}
		if len(seen) != anchors {
			return fmt.Errorf("snapshot holds %d of %d anchors", len(seen), anchors)
		}
		return nil
	})
	reader("live predictive session", func(int) error {
		// A fresh live session per pass, flown over the whole horizon: the
		// anchors are in view from the start and must all be reported,
		// whatever the writer splits, frees or re-seeds meanwhile.
		s, err := db.Predictive([]Waypoint{{T: 0, View: view}, {T: 100, View: view}}, PredictiveOptions{Live: true})
		if err != nil {
			return err
		}
		defer s.Close()
		seen := map[ObjectID]bool{}
		for f := 0; f < 10; f++ {
			rs, err := s.Fetch(float64(10*f), float64(10*f+10))
			if err != nil {
				return err
			}
			if err := countAnchors(rs, seen); err != nil {
				return err
			}
		}
		if len(seen) != anchors {
			return fmt.Errorf("predictive session reported %d of %d anchors", len(seen), anchors)
		}
		return nil
	})
	npdq := db.NonPredictive(NonPredictiveOptions{})
	reader("non-predictive session", func(i int) error {
		if i%8 == 0 {
			npdq.Reset() // the next frame is a full answer again
		}
		rs, err := npdq.Snapshot(view, float64(i%8)*10, float64(i%8)*10+10)
		if err != nil {
			return err
		}
		seen := map[ObjectID]bool{}
		if err := countAnchors(rs, seen); err != nil {
			return err
		}
		if i%8 == 0 && len(seen) != anchors {
			return fmt.Errorf("non-predictive session's full frame holds %d of %d anchors", len(seen), anchors)
		}
		return nil
	})

	version := make([]int, movers)
	for r := 0; r < rounds; r++ {
		ups := make([]MotionUpdate, 0, 2*batch)
		for j := 0; j < batch; j++ {
			k := (r*batch + j*7) % movers
			old := mover(k, version[k])
			version[k]++
			ups = append(ups, MotionUpdate{ID: old.ID, Segment: Segment{T0: old.Segment.T0}, Delete: true}, mover(k, version[k]))
		}
		if r%4 == 3 {
			// Thin the movers out and back, so nodes dissolve and re-split.
			for k := 0; k < movers; k += 2 {
				old := mover(k, version[k])
				ups = append(ups, MotionUpdate{ID: old.ID, Segment: Segment{T0: old.Segment.T0}, Delete: true})
			}
			if err := db.ApplyUpdates(context.Background(), ups, WriteOptions{}); err != nil {
				t.Fatal(err)
			}
			ups = ups[:0]
			for k := 0; k < movers; k += 2 {
				ups = append(ups, mover(k, version[k]))
			}
		}
		if err := db.ApplyUpdates(context.Background(), ups, WriteOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if got := db.Len(); got != anchors+movers {
		t.Errorf("%d segments after the stream, want %d", got, anchors+movers)
	}
	if bs := db.BufferStats(); bs.Evictions == 0 || bs.WriteBacks == 0 {
		t.Errorf("pool never evicted a dirty frame (%+v): the test does not exercise write-back beside in-place edits", bs)
	}
}
