package dynq

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"dynq/internal/fault"
	"dynq/internal/geom"
	"dynq/internal/pager"
	"dynq/internal/rtree"
)

// flight is a 40×40 view crossing the paper's world along x from time 10
// to 50 and its frames, one time unit each: about 40 results a frame on
// paperUpdates' population.
func flight() (path []Waypoint, frames []geom.Interval, at func(t float64) []float64) {
	path = []Waypoint{
		{T: 10, View: Rect{Min: []float64{10, 30}, Max: []float64{50, 70}}},
		{T: 50, View: Rect{Min: []float64{50, 30}, Max: []float64{90, 70}}},
	}
	for f := 0; f < 40; f++ {
		frames = append(frames, geom.Interval{Lo: 10 + float64(f), Hi: 11 + float64(f)})
	}
	return path, frames, func(t float64) []float64 { return []float64{t + 20, 50} }
}

// sameEpisode reports whether two results are the same episode of the same
// segment, bounds and points included.
func sameEpisode(a, b Result) bool {
	return a.ID == b.ID && a.Appear == b.Appear && a.Disappear == b.Disappear &&
		a.Segment.T0 == b.Segment.T0 && a.Segment.T1 == b.Segment.T1 &&
		slices.Equal(a.Segment.From, b.Segment.From) && slices.Equal(a.Segment.To, b.Segment.To)
}

// answerOrder orders results as a several-unit answer is ordered
// (core.CompareResults): by appearance, then object, then segment start.
func answerOrder(a, b Result) int {
	if c := cmp.Compare(a.Appear, b.Appear); c != 0 {
		return c
	}
	if c := cmp.Compare(a.ID, b.ID); c != 0 {
		return c
	}
	return cmp.Compare(a.Segment.T0, b.Segment.T0)
}

// A predictive session's answer does not depend on how many units hold
// the index: frame by frame, one unit and four return the same episodes,
// with and without live inserts arriving between frames, and each episode
// once. The four-unit answer of every frame is in appearance order. The
// inserts are objects standing in the view's centre from frames 1, 5, 9, …
// on, which land in leaves the session has not read yet.
func TestPredictiveFetchSameOnOneUnitAndFour(t *testing.T) {
	ups := paperUpdates(t, 20000, 5)
	path, frames, centre := flight()
	for _, live := range []bool{false, true} {
		answers := map[int][][]Result{} // units → each frame's answer
		for _, units := range []int{1, 4} {
			t.Run(fmt.Sprintf("live=%v/units=%d", live, units), func(t *testing.T) {
				var db *DB
				var err error
				if units == 1 {
					db, err = Open(Options{DualTimeAxes: true})
				} else {
					db, err = OpenSharded(ShardOptions{Options: Options{DualTimeAxes: true}, Shards: units})
				}
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				if err := db.BulkLoadUpdates(ups); err != nil {
					t.Fatal(err)
				}
				s, err := db.Predictive(path, PredictiveOptions{Live: live})
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()

				type episode struct {
					id         ObjectID
					t0, appear float64
				}
				seen := map[episode]bool{}
				inserted := map[ObjectID]bool{} // → delivered
				for f, tw := range frames {
					if live && f%4 == 1 {
						c := centre(tw.Lo)
						id := ObjectID(1_000_000 + f)
						if err := db.Insert(id, Segment{T0: tw.Lo, T1: tw.Hi + 5, From: c, To: c}); err != nil {
							t.Fatal(err)
						}
						inserted[id] = false
					}
					rs, err := s.Fetch(tw.Lo, tw.Hi)
					if err != nil {
						t.Fatal(err)
					}
					if units > 1 && !slices.IsSortedFunc(rs, answerOrder) {
						t.Fatalf("frame %d: the %d-unit answer is not in appearance order", f, units)
					}
					for _, r := range rs {
						k := episode{r.ID, r.Segment.T0, r.Appear}
						if seen[k] {
							t.Errorf("frame %d: object %d's episode from %g delivered again", f, r.ID, r.Appear)
						}
						seen[k] = true
						if _, ok := inserted[r.ID]; ok {
							inserted[r.ID] = true
						}
					}
					answers[units] = append(answers[units], rs)
				}
				for id, delivered := range inserted {
					if !delivered {
						t.Errorf("inserted object %d never delivered", id)
					}
				}
				if live && len(inserted) == 0 {
					t.Fatal("nothing inserted: the live run shows nothing")
				}
			})
		}
		if t.Failed() {
			return
		}
		one, four := answers[1], answers[4]
		total := 0
		for f := range one {
			sameResults(t, fmt.Sprintf("live=%v: frame %d", live, f), slices.Clone(one[f]), slices.Clone(four[f]))
			total += len(one[f])
		}
		if total < 300 {
			t.Fatalf("%d results over the run: too few to mean anything", total)
		}
	}
}

// A Fetch that fails part way keeps what it gathered, on every unit: the
// next Fetch returns what of it is still visible, ahead of the rest of its
// window. Retrying the failed window therefore delivers it whole, and
// moving on to the next window loses only episodes over by then. (A
// failed Fetch used to drop what it gathered: those episodes had left the
// units' queues already, and no later window delivered them.)
func TestPredictiveFetchKeepsWhatAFailedFetchGathered(t *testing.T) {
	ups := paperUpdates(t, 20000, 7)
	segs := make([]soakSeg, len(ups))
	for i, u := range ups {
		segs[i] = soakSeg{id: u.ID, seg: u.Segment}
	}
	path, frames, _ := flight()
	for _, units := range []int{1, 4} {
		t.Run(fmt.Sprintf("units=%d", units), func(t *testing.T) {
			file := filepath.Join(t.TempDir(), "fetch.dynq")
			lay := singleLayout(file)
			if units > 1 {
				lay = shardLayout(file)
			}
			if err := createFiles(lay, units, false, 0, segs); err != nil {
				t.Fatal(err)
			}
			stores := make([]*fault.Store, units)
			e, err := recoverEngine(recoverSpec{lay: lay, units: units, wrapStore: func(i int, f *pager.FileStore) pager.Store {
				stores[i] = fault.NewStore(f)
				return stores[i]
			}})
			if err != nil {
				t.Fatal(err)
			}
			db := &DB{e}
			defer db.Close()

			// run fetches every frame, the failing ones with every read
			// from then on refused: frame retried is fetched again, frame
			// skipped is left for the next one. It returns each frame's
			// answer and reads.
			retried, skipped := -1, -1
			run := func() (answers [][]Result, reads []int) {
				s, err := db.Predictive(path, PredictiveOptions{})
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				for f, tw := range frames {
					fails := f == retried || f == skipped
					if fails {
						for _, st := range stores {
							st.Arm(1)
						}
					}
					before := db.Cost().DiskReads
					rs, err := s.Fetch(tw.Lo, tw.Hi)
					if fails {
						for _, st := range stores {
							st.Disarm()
						}
						if !errors.Is(err, fault.ErrInjected) || rs != nil {
							t.Fatalf("frame %d: %d results, err %v; want the injected fault", f, len(rs), err)
						}
						err = nil
						if f == retried {
							rs, err = s.Fetch(tw.Lo, tw.Hi)
						}
					}
					if err != nil {
						t.Fatalf("frame %d: %v", f, err)
					}
					answers, reads = append(answers, rs), append(reads, int(db.Cost().DiskReads-before))
				}
				return answers, reads
			}
			// The frames that fail read a node and deliver results: one
			// early, one late.
			want, reads := run()
			for f := range frames[:len(frames)-1] {
				switch {
				case reads[f] == 0 || len(want[f]) == 0:
				case retried < 0 && f >= 5:
					retried = f
				case skipped < 0 && f >= 20:
					skipped = f
				}
			}
			if retried < 0 || skipped < 0 {
				t.Fatalf("reads per frame %v: no frame to fail", reads)
			}
			got, _ := run()

			if !slices.EqualFunc(want[retried], got[retried], sameEpisode) {
				t.Errorf("the retried frame: %d results, fault-free %d, or in another order", len(got[retried]), len(want[retried]))
			}
			for f, rs := range got {
				if units > 1 && !slices.IsSortedFunc(rs, answerOrder) {
					t.Errorf("frame %d: the %d-unit answer after a failed fetch is not in appearance order", f, units)
				}
			}
			// Without the skipped frame's retry, what it would have
			// returned and is over before the next frame is gone.
			var all, faulted []Result
			for f, rs := range want {
				for _, r := range rs {
					if f != skipped || r.Disappear >= frames[skipped+1].Lo {
						all = append(all, r)
					}
				}
			}
			for _, rs := range got {
				faulted = append(faulted, rs...)
			}
			sameResults(t, "the faulted run", all, faulted)
		})
	}
}

// A live session fetching while a writer inserts and deletes reports each
// episode at most once. The writer puts objects at the view's leading
// edge, which land in leaves the session is about to read; bursts beside
// the path, which split nodes; and deletes a strip of the population just
// ahead of the view, which frees pages and makes the session rebuild from
// the root. CI's concurrency step runs it repeatedly under -race.
func TestConcurrentLivePDQDeliversOnce(t *testing.T) {
	ups := paperUpdates(t, 20000, 9)
	db := newTestDB(t, Options{DualTimeAxes: true})
	if err := db.BulkLoadUpdates(ups); err != nil {
		t.Fatal(err)
	}
	var subtrees, reseeds atomic.Int64
	defer db.units.Shard(0).Tree.OnUpdate(func(u rtree.Update) {
		switch u.Kind {
		case rtree.UpdateSubtree:
			subtrees.Add(1)
		case rtree.UpdateReseed:
			reseeds.Add(1)
		}
	})()
	path, frames, _ := flight()
	s, err := db.Predictive(path, PredictiveOptions{Live: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var now atomic.Uint64 // the frame being fetched, as float64 bits
	now.Store(math.Float64bits(frames[0].Lo))
	stop, finished := make(chan struct{}), make(chan struct{})
	wrote := make(chan struct{}, 1) // a round of writes was applied
	var werr error                  // the writer's, read once finished is closed
	var once sync.Once
	halt := func() {
		once.Do(func() { close(stop) })
		<-finished
	}
	defer halt()
	go func() {
		defer close(finished)
		r := rand.New(rand.NewSource(10))
		gone := make([]bool, len(ups))
		id := ObjectID(1_000_000)
		for round := 0; ; round++ {
			select {
			case <-stop:
				return
			default:
			}
			tw := math.Float64frombits(now.Load())
			var batch []MotionUpdate
			for range 5 {
				// On the leading edge half a time unit from now.
				at, y := tw+0.5, 30+r.Float64()*40
				p := []float64{at + 40 - r.Float64(), y}
				batch = append(batch, MotionUpdate{ID: id, Segment: Segment{T0: at, T1: at + 5, From: p, To: p}})
				id++
			}
			if round%3 == 0 {
				for range 150 {
					at, x := tw+r.Float64()*10, tw+r.Float64()*40
					batch = append(batch, MotionUpdate{ID: id, Segment: Segment{T0: at, T1: at + 1, From: []float64{x, 71 + r.Float64()*4}, To: []float64{x + 1, 71}}})
					id++
				}
			}
			if round%5 == 0 {
				x := tw + 40 + r.Float64()*10
				for i, u := range ups {
					if !gone[i] && u.Segment.From[0] >= x && u.Segment.From[0] < x+3 {
						gone[i] = true
						batch = append(batch, MotionUpdate{ID: u.ID, Segment: u.Segment, Delete: true})
					}
				}
			}
			if werr = db.ApplyUpdates(context.Background(), batch, WriteOptions{}); werr != nil {
				return
			}
			select {
			case wrote <- struct{}{}:
			default:
			}
		}
	}()

	type episode struct {
		id         ObjectID
		t0, appear float64
	}
	seen := map[episode]bool{}
	repeats := 0
	for _, tw := range frames {
		// At least one round of writes a time unit, however the goroutines
		// are scheduled.
		select {
		case <-wrote:
		case <-finished:
			t.Fatalf("the writer stopped: %v", werr)
		}
		for lo := tw.Lo; lo < tw.Hi; lo += 0.25 {
			now.Store(math.Float64bits(lo))
			rs, err := s.Fetch(lo, lo+0.25)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rs {
				k := episode{r.ID, r.Segment.T0, r.Appear}
				if seen[k] {
					repeats++
					t.Logf("frame [%g, %g]: object %d's episode from %g delivered again", lo, lo+0.25, r.ID, r.Appear)
				}
				seen[k] = true
			}
		}
	}
	halt()
	if werr != nil {
		t.Fatal(werr)
	}
	if repeats > 0 {
		t.Errorf("%d episodes delivered more than once", repeats)
	}
	if subtrees.Load() == 0 || reseeds.Load() == 0 {
		t.Fatalf("%d splits and %d page-freeing deletes: the writer did not exercise the session", subtrees.Load(), reseeds.Load())
	}
}
