package dynq

import (
	"cmp"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"dynq/internal/fault"
	"dynq/internal/geom"
	"dynq/internal/pager"
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

// Next over a window returns, in order, what Fetch returns for it: on one
// unit and on four, with and without live updates arriving between
// frames, and across windows Next abandoned half-read, whose rest still
// visible joins the next window: ahead of it on one unit, in appearance
// order with it on four. The four-unit answer of every frame is sorted by
// appearance, and on the paper's population alone it is the one-unit
// answer as a multiset.
func TestPredictiveNextServesFetchesAnswer(t *testing.T) {
	ups := paperUpdates(t, 20000, 5)
	path, frames, centre := flight()
	for _, live := range []bool{false, true} {
		answers := map[int][][]Result{} // units → each frame's Fetch answer
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
				fetch, err := db.Predictive(path, PredictiveOptions{Live: live})
				if err != nil {
					t.Fatal(err)
				}
				defer fetch.Close()
				next, err := db.Predictive(path, PredictiveOptions{Live: live})
				if err != nil {
					t.Fatal(err)
				}
				defer next.Close()

				var owed []Result // what Next left of the last window
				halves, carried, inserted := 0, 0, 0
				for f, tw := range frames {
					if live && f%4 == 1 {
						// An object standing in the view's centre from now on.
						c := centre(tw.Lo)
						seg := Segment{T0: tw.Lo, T1: tw.Hi + 5, From: c, To: c}
						if err := db.Insert(ObjectID(1_000_000+f), seg); err != nil {
							t.Fatal(err)
						}
						inserted++
					}
					want, err := fetch.Fetch(tw.Lo, tw.Hi)
					if err != nil {
						t.Fatal(err)
					}
					answers[units] = append(answers[units], want)
					if units > 1 && !slices.IsSortedFunc(want, answerOrder) {
						t.Fatalf("frame %d: the %d-unit answer is not in appearance order", f, units)
					}
					var expect []Result
					for _, r := range owed {
						if r.Disappear >= tw.Lo {
							expect = append(expect, r)
							carried++
						}
					}
					expect = append(expect, want...)
					if units > 1 {
						slices.SortStableFunc(expect, answerOrder)
					}
					n := len(expect)
					if f%5 == 3 && n > 1 {
						n /= 2 // abandon the window half-read
						halves++
					}
					for i := 0; i < n; i++ {
						r, err := next.Next(tw.Lo, tw.Hi)
						if err != nil {
							t.Fatal(err)
						}
						if r == nil || !sameEpisode(*r, expect[i]) {
							t.Fatalf("frame %d: Next's result %d is %+v, Fetch's %+v", f, i, r, expect[i])
						}
					}
					if n == len(expect) {
						if r, err := next.Next(tw.Lo, tw.Hi); err != nil || r != nil {
							t.Fatalf("frame %d: Next after the window's %d results = %+v, %v", f, n, r, err)
						}
					}
					owed = expect[n:]
				}
				if halves < 3 || carried == 0 || (live && inserted == 0) {
					t.Fatalf("%d windows abandoned half-read, %d results carried over, %d inserted: too few to mean anything", halves, carried, inserted)
				}
			})
		}
		if live {
			continue
		}
		one, four := answers[1], answers[4]
		total := 0
		for f := range one {
			sameResults(t, fmt.Sprintf("frame %d", f), slices.Clone(one[f]), slices.Clone(four[f]))
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
