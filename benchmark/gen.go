package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"

	"dynq"
	"dynq/internal/geom"
	"dynq/internal/motion"
	"dynq/internal/rtree"
	"dynq/internal/shard"
	"dynq/internal/trajectory"
	"dynq/internal/workload"
)

// The paper's experimental world (Section 5): 100×100 space, 100 time
// units, one snapshot every 0.1 time unit, 1 first + 50 subsequent
// snapshots per dynamic query.
const (
	framesPerQuery = workload.SubsequentFrames + 1
	paperSegments  = 500_000 // 5000 objects, about 100 motion updates each
	// streamFirstID keeps streamed-in objects apart from bulk-loaded ones.
	streamFirstID = 1 << 20
)

// overlaps and ranges are the tick mix: the paper's extreme and middle
// overlap levels crossed with its small, medium and big windows. Three
// ranges (not two) keep the pooled frame-latency median inside the body
// of the medium-window cluster instead of in the gap between two
// clusters, where it would jump from run to run.
var (
	overlaps = []float64{0, 0.50, 0.90, 0.9999}
	ranges   = []float64{8, 14, 20}
)

// combos is the number of distinct (overlap, range) cells a tick cycles
// through; rounds are sized in multiples of it so every round sees the
// same mix.
var combos = len(overlaps) * len(ranges)

// seg is one motion segment at the index's float32 key precision, the
// harness's own compact copy of what it wrote into the database.
type seg struct {
	id             uint64
	t0, t1         float64
	x0, y0, x1, y1 float64
}

type segKey struct {
	id uint64
	t0 float64
}

func (s seg) key() segKey { return segKey{s.id, s.t0} }

func (s seg) insert() dynq.MotionUpdate {
	return dynq.MotionUpdate{ID: s.id, Segment: dynq.Segment{
		T0: s.t0, T1: s.t1, From: []float64{s.x0, s.y0}, To: []float64{s.x1, s.y1},
	}}
}

func (s seg) remove() dynq.MotionUpdate {
	return dynq.MotionUpdate{ID: s.id, Segment: dynq.Segment{T0: s.t0}, Delete: true}
}

func (s seg) geom() geom.Segment {
	return geom.Segment{
		T:     geom.Interval{Lo: s.t0, Hi: s.t1},
		Start: geom.Point{s.x0, s.y0},
		End:   geom.Point{s.x1, s.y1},
	}
}

func segOf(id uint64, g dynq.Segment) seg {
	return seg{id: id, t0: g.T0, t1: g.T1, x0: g.From[0], y0: g.From[1], x1: g.To[0], y1: g.To[1]}
}

func q32(v float64) float64 { return float64(float32(v)) }

// userBytes is the size of an update in the write path's own record
// encoding (id, kind, start time; inserts add end time and two 2-d
// points): the denominator of write amplification.
func userBytes(u dynq.MotionUpdate) int {
	if u.Delete {
		return 17
	}
	return 17 + 8 + 2*2*8
}

// population generates the paper's mobile objects (about 100 segments
// each, tiling [0,100], ordered by object then time, ids from firstID)
// and keeps exactly target segments, the same number on each of shards
// hash partitions. The count is fixed because the bulk loader's tiling
// flips between two regimes, a factor two apart in reads per query, on
// the exact number of segments it is given; a count that varied with the
// seed would make every seed a different benchmark.
func population(target, shards int, firstID uint64, seed int64) ([]seg, error) {
	sim := motion.PaperConfig()
	sim.Objects = target/90 + 2*shards
	sim.Seed = seed
	raw, err := motion.GenerateSegments(sim)
	if err != nil {
		return nil, err
	}
	room := make([]int, shards)
	for i := range room {
		room[i] = target / shards
	}
	out := make([]seg, 0, target)
	for _, r := range raw {
		id := firstID + r.ObjID
		if sh := shard.Place(rtree.ObjectID(id), shards); room[sh] > 0 {
			room[sh]--
		} else {
			continue
		}
		out = append(out, seg{
			id: id,
			t0: q32(r.Seg.T.Lo), t1: q32(r.Seg.T.Hi),
			x0: q32(r.Seg.Start[0]), y0: q32(r.Seg.Start[1]),
			x1: q32(r.Seg.End[0]), y1: q32(r.Seg.End[1]),
		})
	}
	if len(out) != target/shards*shards {
		return nil, fmt.Errorf("population: generated %d of %d segments", len(out), target)
	}
	return out, nil
}

// orderedStream is the paper's motion-update stream of a second set of
// objects: need segments, in the order their motion starts.
func orderedStream(need int, seed int64) ([]seg, error) {
	stream, err := population(need, 1, streamFirstID, seed)
	if err != nil {
		return nil, err
	}
	sort.SliceStable(stream, func(i, j int) bool { return stream[i].t0 < stream[j].t0 })
	return stream, nil
}

func inserts(segs []seg) []dynq.MotionUpdate {
	out := make([]dynq.MotionUpdate, len(segs))
	for i, s := range segs {
		out[i] = s.insert()
	}
	return out
}

// tick is one generated observer fly-through: 51 frame windows with
// their time intervals, and the key snapshots of the same path for the
// predictive session.
type tick struct {
	overlap, side float64
	views         []dynq.Rect
	times         []geom.Interval
	waypoints     []dynq.Waypoint
	// The same path in the index's own types, for the layer ledger's
	// calls below the public surface.
	boxes []geom.Box
	traj  *trajectory.Trajectory
}

func rectOf(b geom.Box) dynq.Rect {
	return dynq.Rect{Min: []float64{b[0].Lo, b[1].Lo}, Max: []float64{b[0].Hi, b[1].Hi}}
}

// tickStart spreads the ticks' start times evenly over the data's time
// span by a golden-ratio sequence that is the same for every seed: the
// density of segments along time is the one large-scale unevenness of the
// data (ingest-wal fills time in order), and this keeps it out of the
// seed-to-seed spread.
func tickStart(n int) float64 {
	const span = 100 - (framesPerQuery+1)*workload.FrameDt
	_, frac := math.Modf(float64(n+1) * 0.6180339887498949)
	return frac * span
}

// newTick generates the n-th fly-through of a run: the (overlap, range)
// cell cycles deterministically, the start time follows tickStart, and
// position and heading come from the seeded source.
func newTick(n int, r *rand.Rand) (*tick, error) {
	overlap := overlaps[n%len(overlaps)]
	side := ranges[(n/len(overlaps))%len(ranges)]
	q, err := workload.Generate(workload.PaperQuery(overlap, side), r)
	if err != nil {
		return nil, err
	}
	shift := tickStart(n) - q.Times[0].Lo
	keys := q.Traj.Keys()
	for i := range keys {
		keys[i].T += shift
	}
	traj, err := trajectory.New(keys)
	if err != nil {
		return nil, err
	}
	tk := &tick{overlap: overlap, side: side, boxes: q.Windows, traj: traj}
	for i, w := range q.Windows {
		tk.views = append(tk.views, rectOf(w))
		tk.times = append(tk.times, geom.Interval{Lo: q.Times[i].Lo + shift, Hi: q.Times[i].Hi + shift})
	}
	for _, k := range keys {
		tk.waypoints = append(tk.waypoints, dynq.Waypoint{T: k.T, View: rectOf(k.Window)})
	}
	return tk, nil
}

// scriptHash fingerprints the generated operation stream, so a test can
// assert that one seed always produces one script.
type scriptHash struct{ h hash.Hash64 }

func newScriptHash() *scriptHash { return &scriptHash{h: fnv.New64a()} }

func (s *scriptHash) floats(vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		s.h.Write(b[:])
	}
}

func (s *scriptHash) tick(tk *tick) {
	s.h.Write([]byte{'T'})
	for i, v := range tk.views {
		s.floats(v.Min[0], v.Min[1], v.Max[0], v.Max[1], tk.times[i].Lo, tk.times[i].Hi)
	}
}

func (s *scriptHash) batch(ups []dynq.MotionUpdate) {
	s.h.Write([]byte{'B'})
	for _, u := range ups {
		s.floats(float64(u.ID), u.Segment.T0)
		if !u.Delete {
			s.floats(u.Segment.T1, u.Segment.From[0], u.Segment.From[1], u.Segment.To[0], u.Segment.To[1])
		}
	}
}

func (s *scriptHash) sync() { s.h.Write([]byte{'S'}) }

func (s *scriptHash) sum() uint64 { return s.h.Sum64() }
