package dynq

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"dynq/internal/rtree"
	"dynq/internal/shard"
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

// TestConcurrentBatchesAtomicPerUnit holds the write path to the paper's
// update rule (§4.1) on every unit: a query sees a write batch whole or
// not at all. Each batch's objects all place on one unit, so each batch is
// one unit's portion, one rtree.Batch under that tree's lock. Writers
// insert groups of 16–32 objects in one batch each, then correct every
// object of a group in one batch: the end time shrinks (the new segment
// fits its leaf), and every third version moves the group far (it does
// not). Readers check that every Snapshot, KNN (k = every object) and
// Within answer (a join, two tree locks at once across units) shows each
// group all or none and at one version, and each object once; a live
// predictive session runs beside them. The final state must equal a
// serial replay of the same batches.
func TestConcurrentBatchesAtomicPerUnit(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			open := func() *DB {
				db, err := OpenSharded(ShardOptions{Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { db.Close() })
				return db
			}
			runBatchAtomicity(t, open(), open(), shards)
		})
	}
}

func runBatchAtomicity(t *testing.T, db, serial *DB, shards int) {
	const (
		groups  = 12
		writers = 3
		rounds  = 6 // corrections per object after its insert
	)
	// Group g sits on a 4×3 grid, its members 0.4 apart in rows of 8, so
	// that Within(0.5) pairs every member with a neighbour and no group
	// with another; version v lives until 100-v and, from v = 3 to 5, 40
	// to the east.
	members := make([][]ObjectID, groups)
	groupOf := map[ObjectID]int{}
	next := ObjectID(1)
	for g := range members {
		for len(members[g]) < 16+(g*5)%17 {
			if shard.Place(rtree.ObjectID(next), shards) == g%shards {
				members[g] = append(members[g], next)
				groupOf[next] = g
			}
			next++
		}
	}
	seg := func(g, j, v int) Segment {
		x := 2 + float64(g%4)*10 + float64(j%8)*0.4 + 40*float64(v/3%2)
		y := 2 + float64(g/4)*10 + float64(j/8)*0.4
		return Segment{T0: 0, T1: 100 - float64(v), From: []float64{x, y}, To: []float64{x, y}}
	}
	batch := func(g, v int) []MotionUpdate {
		var ups []MotionUpdate
		for j, id := range members[g] {
			if v > 0 {
				ups = append(ups, MotionUpdate{ID: id, Segment: Segment{T0: 0}, Delete: true})
			}
			ups = append(ups, MotionUpdate{ID: id, Segment: seg(g, j, v)})
		}
		return ups
	}

	// check holds one answer, given as (object, version) sightings, to the
	// rule: known objects, one version per group, each group's objects all
	// or none, and — when once — each object sighted once.
	type sighting struct {
		id ObjectID
		v  float64
	}
	check := func(seen []sighting, once bool) error {
		version := map[int]float64{}
		ids := make([]map[ObjectID]bool, groups)
		for _, s := range seen {
			g, ok := groupOf[s.id]
			if !ok {
				return fmt.Errorf("unknown object %d", s.id)
			}
			if ids[g] == nil {
				ids[g], version[g] = map[ObjectID]bool{}, s.v
			}
			if version[g] != s.v {
				return fmt.Errorf("group %d shows versions %g and %g at once", g, version[g], s.v)
			}
			if once && ids[g][s.id] {
				return fmt.Errorf("object %d shows twice", s.id)
			}
			ids[g][s.id] = true
		}
		for g, in := range ids {
			if in != nil && len(in) != len(members[g]) {
				return fmt.Errorf("group %d shows %d of its %d objects", g, len(in), len(members[g]))
			}
		}
		return nil
	}
	view := Rect{Min: []float64{0, 0}, Max: []float64{100, 100}}

	done := make(chan struct{})
	errCh := make(chan error, writers+4)
	var readers, writing sync.WaitGroup
	reader := func(name string, pass func() error) {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					if i >= 3 {
						return
					}
				default:
				}
				if err := pass(); err != nil {
					errCh <- fmt.Errorf("%s, pass %d: %w", name, i, err)
					return
				}
			}
		}()
	}
	reader("snapshot", func() error {
		rs, err := db.Snapshot(view, 0, 50)
		if err != nil {
			return err
		}
		seen := make([]sighting, len(rs))
		for i, r := range rs {
			seen[i] = sighting{r.ID, 100 - r.Segment.T1}
		}
		return check(seen, true)
	})
	reader("knn", func() error {
		nbs, err := db.KNN([]float64{45, 45}, 10, len(groupOf))
		if err != nil {
			return err
		}
		seen := make([]sighting, len(nbs))
		for i, n := range nbs {
			seen[i] = sighting{n.ID, 100 - n.Segment.T1}
		}
		return check(seen, true)
	})
	reader("within", func() error {
		pairs, err := db.Within(0.5, 10)
		if err != nil {
			return err
		}
		var seen []sighting
		for _, p := range pairs {
			seen = append(seen, sighting{p.A, 100 - p.SegmentA.T1}, sighting{p.B, 100 - p.SegmentB.T1})
		}
		return check(seen, false)
	})
	reader("live predictive session", func() error {
		s, err := db.Predictive([]Waypoint{{T: 0, View: view}, {T: 50, View: view}}, PredictiveOptions{Live: true})
		if err != nil {
			return err
		}
		defer s.Close()
		for f := 0; f < 5; f++ {
			rs, err := s.Fetch(float64(10*f), float64(10*f+10))
			if err != nil {
				return err
			}
			for _, r := range rs {
				if _, ok := groupOf[r.ID]; !ok {
					return fmt.Errorf("unknown object %d", r.ID)
				}
			}
		}
		return nil
	})
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func() {
			defer writing.Done()
			for v := 0; v <= rounds; v++ {
				for g := w; g < groups; g += writers {
					if err := db.ApplyUpdates(context.Background(), batch(g, v), WriteOptions{}); err != nil {
						errCh <- fmt.Errorf("writer %d, group %d, version %d: %w", w, g, v, err)
						return
					}
				}
			}
		}()
	}
	writing.Wait()
	close(done)
	readers.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if t.Failed() {
		return
	}

	for g := range members {
		for v := 0; v <= rounds; v++ {
			if err := serial.ApplyUpdates(context.Background(), batch(g, v), WriteOptions{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	state := func(db *DB) []string {
		rs, err := db.Snapshot(view, 0, 100)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(rs))
		for i, r := range rs {
			out[i] = fmt.Sprint(r.ID, r.Segment)
		}
		sort.Strings(out)
		return out
	}
	if got, want := state(db), state(serial); !reflect.DeepEqual(got, want) {
		t.Fatalf("concurrent run holds %d segments, the serial replay %d, or they differ", len(got), len(want))
	}
	if got := db.Len(); got != len(groupOf) {
		t.Fatalf("%d segments after the run, want %d", got, len(groupOf))
	}
}
