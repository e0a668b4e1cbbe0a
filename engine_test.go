package dynq

import (
	"context"
	"dynq/internal/rtree"
	"dynq/internal/shard"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// flavour is one way to get a database of a given unit count, fresh and
// through the recovering open; shards is its RecoverOptions.Shards.
type flavour struct {
	name   string
	units  int
	shards int
	create func(path string, logged bool) (*DB, error)
}

func (fl flavour) reopen(path string) (*DB, *RecoveryReport, error) {
	return OpenFileRecoverWith(path, RecoverOptions{Shards: fl.shards})
}

func flavours() []flavour {
	sharded := func(n int) flavour {
		return flavour{
			name:   fmt.Sprintf("OpenSharded{%d}", n),
			units:  n,
			shards: n,
			create: func(path string, logged bool) (*DB, error) {
				return OpenSharded(ShardOptions{Options: Options{Path: path}, Shards: n, WAL: logged})
			},
		}
	}
	return []flavour{{
		name:  "Open",
		units: 1,
		create: func(path string, logged bool) (*DB, error) {
			opts := Options{Path: path}
			if logged {
				opts.WALPath = path + ".wal"
			}
			return Open(opts)
		},
	}, sharded(1), sharded(4)}
}

var everything = Rect{Min: []float64{-1e6, -1e6}, Max: []float64{1e6, 1e6}}

// TestFailedDeleteLeavesUnitUntouched: a batch whose delete has nothing
// to remove is refused before anything of it is applied, on every
// flavour, with and without logs. (The in-memory sharded path used to
// apply update by update and keep the insert.)
func TestFailedDeleteLeavesUnitUntouched(t *testing.T) {
	for _, fl := range flavours() {
		for _, logged := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/logged=%v", fl.name, logged), func(t *testing.T) {
				path := ""
				if logged {
					path = filepath.Join(t.TempDir(), "db.dynq")
				}
				db, err := fl.create(path, logged)
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				ctx := context.Background()
				if err := db.ApplyUpdates(ctx, shardBatch(1, 16), WriteOptions{}); err != nil {
					t.Fatal(err)
				}
				before, err := db.Snapshot(everything, 0, 10)
				if err != nil {
					t.Fatal(err)
				}
				sortResults(before)

				// An insert and a delete of a never-inserted object that
				// share a unit, so the insert is in the portion that fails.
				ins, missing := ObjectID(1000), ObjectID(2000)
				for shard.Place(rtree.ObjectID(missing), db.units.Shards()) != shard.Place(rtree.ObjectID(ins), db.units.Shards()) {
					missing++
				}
				err = db.ApplyUpdates(ctx, []MotionUpdate{
					{ID: ins, Segment: shardSeg(50)},
					{ID: missing, Segment: Segment{T0: 0}, Delete: true},
				}, WriteOptions{})
				if !errors.Is(err, ErrNotFound) {
					t.Fatalf("batch with a missing delete: %v, want ErrNotFound", err)
				}
				if db.Len() != 16 {
					t.Fatalf("failed batch applied a prefix: Len = %d, want 16", db.Len())
				}
				after, err := db.Snapshot(everything, 0, 10)
				if err != nil {
					t.Fatal(err)
				}
				sortResults(after)
				if !reflect.DeepEqual(before, after) {
					t.Fatalf("failed batch changed the answer: %d results before, %d after", len(before), len(after))
				}
			})
		}
	}
}

// TestSyncRacesAppends: writers issue group-committed batches while
// another goroutine checkpoints in a loop; the handles are then
// abandoned without a final Sync and the database reopened through
// recovery. Every acknowledged segment must be there — a checkpoint that
// raced an append must neither lose the record nor truncate it from the
// log before the page commit covers it. Run under -race.
func TestSyncRacesAppends(t *testing.T) {
	for _, fl := range flavours() {
		if fl.name == "OpenSharded{1}" {
			continue // same engine shape as Open, different file names only
		}
		t.Run(fl.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "db.dynq")
			db, err := fl.create(path, true)
			if err != nil {
				t.Fatal(err)
			}
			const writers, batches, size = 4, 24, 8
			stop := make(chan struct{})
			var syncs sync.WaitGroup
			syncs.Add(1)
			go func() {
				defer syncs.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if err := db.Sync(); err != nil {
						t.Errorf("Sync: %v", err)
						return
					}
				}
			}()
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for b := 0; b < batches; b++ {
						base := ObjectID(1 + (w*batches+b)*size)
						if err := db.ApplyUpdates(context.Background(), shardBatch(base, size), WriteOptions{Durability: DurabilityGroupCommit}); err != nil {
							t.Errorf("writer %d batch %d: %v", w, b, err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(stop)
			syncs.Wait()
			if t.Failed() {
				db.Close()
				return
			}
			// Abandon without a Sync: whatever the last racing checkpoint
			// did not cover must come back from the logs.
			if err := db.crash(); err != nil {
				t.Fatal(err)
			}

			re, _, err := fl.reopen(path)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer re.Close()
			const total = writers * batches * size
			if re.Len() != total {
				t.Fatalf("recovered %d segments, want all %d acknowledged", re.Len(), total)
			}
			rs, err := re.Snapshot(everything, 0, 10)
			if err != nil {
				t.Fatal(err)
			}
			seen := make(map[ObjectID]bool, len(rs))
			for _, r := range rs {
				seen[r.ID] = true
			}
			for id := ObjectID(1); id <= total; id++ {
				if !seen[id] {
					t.Fatalf("acknowledged object %d missing after recovery (%d of %d present)", id, len(seen), total)
				}
			}
			if err := re.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBothLayoutsReopen writes a single file and one- and four-shard
// sets through the exported API, each with and without logs — a
// committed base plus a tail the logs alone carry when armed — and
// reopens every case through OpenFileRecoverWith: the file names and
// formats are the ones every earlier version wrote, and every case holds
// the same segments, answers and (between the one-unit layouts) the same
// recovery report. A wrong shard count is refused, naming the counts,
// without touching the files; a missing database is os.ErrNotExist.
func TestBothLayoutsReopen(t *testing.T) {
	seen := map[bool]map[string]reopened{false: {}, true: {}}
	for _, fl := range flavours() {
		t.Run(fl.name, func(t *testing.T) {
			for _, logged := range []bool{false, true} {
				t.Run(fmt.Sprintf("logged=%v", logged), func(t *testing.T) {
					got := reopenCase(t, fl, logged)
					for name, other := range seen[logged] {
						if !reflect.DeepEqual(got.answer, other.answer) {
							t.Errorf("answers differ from %s's", name)
						}
						if fl.units == 1 && name == "Open" && got.report != other.report {
							t.Errorf("report %+v differs from Open's %+v", got.report, other.report)
						}
					}
					seen[logged][fl.name] = got
				})
			}
		})
	}
}

// reopened is what one cell of TestBothLayoutsReopen recovered.
type reopened struct {
	answer []Result
	report RecoveryReport
}

// reopenCase is one cell of TestBothLayoutsReopen.
func reopenCase(t *testing.T, fl flavour, logged bool) reopened {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.dynq")
	db, err := fl.create(path, logged)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := db.ApplyUpdates(ctx, shardBatch(1, 40), WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	tail := WriteOptions{Durability: DurabilitySync}
	if !logged {
		tail = WriteOptions{}
	}
	if err := db.ApplyUpdates(ctx, shardBatch(100, 24), tail); err != nil {
		t.Fatal(err)
	}
	if !logged {
		if err := db.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	want, err := db.Snapshot(everything, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	sortResults(want)
	if err := db.Close(); err != nil { // no Sync: a logged tail lives in the logs only
		t.Fatal(err)
	}
	var names []string
	for i := 0; i < fl.units; i++ {
		name := path
		if fl.shards > 0 {
			name = fmt.Sprintf("%s.shard%d", path, i)
		}
		names = append(names, name)
		if logged {
			names = append(names, name+".wal")
		}
	}
	files := readFiles(t, dir)
	if len(files) != len(names) {
		t.Fatalf("wrote %d files, want %v", len(files), names)
	}
	for _, name := range names {
		if _, ok := files[filepath.Base(name)]; !ok {
			t.Fatalf("expected file %s missing", name)
		}
	}

	wrong := map[int][]int{0: {1}, 1: {0}, 4: {0, 2, 8}}[fl.shards]
	for _, n := range wrong {
		_, _, err := OpenFileRecoverWith(path, RecoverOptions{Shards: n})
		if err == nil {
			t.Fatalf("reopen with Shards %d succeeded", n)
		}
		counts := fmt.Sprintf("created with %d shards", fl.shards)
		if msg := err.Error(); !strings.Contains(msg, "shard count") || !strings.Contains(msg, counts) || !strings.Contains(msg, fmt.Sprintf("opened with %d shards", n)) {
			t.Errorf("reopen with Shards %d: error should name both counts and the shard-count rule, got: %v", n, err)
		}
	}
	if !reflect.DeepEqual(readFiles(t, dir), files) {
		t.Fatal("a refused reopen changed the files")
	}

	re, merged, err := fl.reopen(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 64 {
		t.Fatalf("reopen found %d segments, want 64 (40 committed + 24 in the tail)", re.Len())
	}
	got, err := re.Snapshot(everything, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	sortResults(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reopen answers %d results, the writer answered %d", len(got), len(want))
	}
	if _, ok := re.WALTelemetry(nil); ok != logged {
		t.Fatalf("reopen armed logs: %v, want %v (auto-detect)", ok, logged)
	}
	reps := re.recovery
	if len(reps) != fl.units {
		t.Fatalf("%d per-unit reports, want %d", len(reps), fl.units)
	}
	segments, replayed := 0, 0
	for i, rep := range reps {
		if rep.WALArmed != logged {
			t.Errorf("unit %d report WALArmed = %v, want %v", i, rep.WALArmed, logged)
		}
		segments += rep.Segments
		replayed += rep.WALUpdatesReplayed
	}
	if logOnly := map[bool]int{false: 0, true: 24}[logged]; segments != 64-logOnly || replayed != logOnly {
		t.Errorf("reports hold %d committed + %d replayed segments, want %d + %d", segments, replayed, 64-logOnly, logOnly)
	}
	if merged.Segments != segments || merged.WALUpdatesReplayed != replayed {
		t.Errorf("merged report %+v disagrees with the per-unit ones", merged)
	}
	if fl.units == 1 && merged != reps[0] {
		t.Error("one unit's merged report is not its own")
	}

	absent := filepath.Join(dir, "absent.dynq")
	if _, _, err := OpenFileRecoverWith(absent, RecoverOptions{Shards: fl.shards, WAL: true}); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("reopen of a missing database: %v, want os.ErrNotExist", err)
	}
	if left, _ := filepath.Glob(absent + "*"); len(left) != 0 {
		t.Fatalf("refused open left files behind: %v", left)
	}
	return reopened{got, *merged}
}

// readFiles returns every file in dir by name with its contents.
func readFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// TestOneUnitFlavoursIdentical: Open and OpenSharded{Shards: 1} are the
// same engine under two file layouts, so every query returns the same
// answer in the same order at the same cost.
func TestOneUnitFlavoursIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	segs := randomPopulation(r, 200, 10)
	db, sdb := equivPair(t, segs, 1, true)
	wps, views, times := observer(12)

	type probe struct {
		name string
		run  func(db Database) (any, error)
	}
	probes := []probe{
		{"snapshot", func(db Database) (any, error) { return db.Snapshot(views[3], times[3][0], times[3][1]) }},
		{"knn", func(db Database) (any, error) { return db.KNN([]float64{40, 30}, 2, 7) }},
		{"within", func(db Database) (any, error) {
			return db.(interface {
				Within(delta, t float64) ([]Pair, error)
			}).Within(2.5, 4)
		}},
		{"predictive", func(db Database) (any, error) {
			s, err := db.Predictive(wps, PredictiveOptions{})
			if err != nil {
				return nil, err
			}
			defer s.Close()
			var frames [][]Result
			for _, tw := range times {
				rs, err := s.Fetch(tw[0], tw[1])
				if err != nil {
					return nil, err
				}
				frames = append(frames, rs)
			}
			return frames, nil
		}},
		{"non-predictive", func(db Database) (any, error) {
			s := db.NonPredictive(NonPredictiveOptions{})
			var frames [][]Result
			for f := range views {
				rs, err := s.Snapshot(views[f], times[f][0], times[f][1])
				if err != nil {
					return nil, err
				}
				frames = append(frames, rs)
			}
			return frames, nil
		}},
		{"adaptive", func(db Database) (any, error) {
			s, err := db.(*DB).Adaptive(AdaptiveOptions{Slack: 1, Horizon: 2})
			if err != nil {
				return nil, err
			}
			defer s.Close()
			var frames [][]Result
			for f := range views {
				rs, err := s.Frame(views[f], times[f][0], times[f][1])
				if err != nil {
					return nil, err
				}
				frames = append(frames, rs)
			}
			return frames, nil
		}},
	}
	for _, p := range probes {
		costA, costB := db.CostSnapshot(), sdb.CostSnapshot()
		a, err := p.run(db)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		b, err := p.run(sdb)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: answers differ in content or order", p.name)
		}
		if da, ds := db.CostSnapshot().Sub(costA), sdb.CostSnapshot().Sub(costB); da != ds {
			t.Errorf("%s: cost %+v vs %+v", p.name, da, ds)
		}
	}
}

// TestShardedAdaptiveEquivalence: the adaptive session delivers the same
// objects per frame from one unit and from four.
func TestShardedAdaptiveEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	segs := randomPopulation(r, 300, 12)
	db, sdb := equivPair(t, segs, 4, true)
	_, views, times := observer(20)
	single, err := db.Adaptive(AdaptiveOptions{Slack: 1, Horizon: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	sharded, err := sdb.Adaptive(AdaptiveOptions{Slack: 1, Horizon: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	total, predictive := 0, 0
	for f := range views {
		want, err := single.Frame(views[f], times[f][0], times[f][1])
		if err != nil {
			t.Fatal(err)
		}
		got, err := sharded.Frame(views[f], times[f][0], times[f][1])
		if err != nil {
			t.Fatal(err)
		}
		sameIDs(t, fmt.Sprintf("adaptive frame %d", f), want, got)
		total += len(want)
		if single.Predictive() {
			predictive++
		}
	}
	if total == 0 || predictive == 0 {
		t.Fatalf("adaptive equivalence vacuous: %d results, %d predictive frames", total, predictive)
	}
}

// sameIDs compares which object segments two frames delivered.
func sameIDs(t *testing.T, label string, a, b []Result) {
	t.Helper()
	key := func(rs []Result) map[[2]float64]bool {
		m := make(map[[2]float64]bool, len(rs))
		for _, r := range rs {
			m[[2]float64{float64(r.ID), r.Segment.T0}] = true
		}
		return m
	}
	if ka, kb := key(a), key(b); !reflect.DeepEqual(ka, kb) {
		t.Fatalf("%s: %d vs %d distinct segments delivered", label, len(ka), len(kb))
	}
}
