package trajectory

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"dynq/internal/geom"
	"dynq/internal/pager"
	"dynq/internal/rtree"
)

// fuzzSrc deals values out of a fuzzer's byte string (zeros once it runs
// dry).
type fuzzSrc struct {
	b    []byte
	last float64
}

func (s *fuzzSrc) take(n int) uint64 {
	var buf [8]byte
	s.b = s.b[copy(buf[:n], s.b):]
	return binary.LittleEndian.Uint64(buf[:])
}

var coordEdges = []float64{0, math.Copysign(0, -1), math.MaxFloat32, -math.MaxFloat32, 1e-45, -1e-45,
	float64(float32(0.1)), float64(math.Nextafter32(0.1, 1)), 1, 100}

// coord deals a value a page can hold: finite at float32 precision — any
// bit pattern, a coarse grid (so values coincide and touch), an edge of the
// format, or the previous value again (zero-length and stationary segments).
func (s *fuzzSrc) coord() float64 {
	v := s.last
	switch sel := s.take(1); sel % 4 {
	case 0:
		if f := float64(math.Float32frombits(uint32(s.take(4)))); f-f == 0 {
			v = f
		}
	case 1:
		v = float64(int8(s.take(1))) / 4
	case 2:
		v = coordEdges[int(sel/4)%len(coordEdges)]
	}
	s.last = v
	return v
}

// border deals a window border: anything coord deals, ±Inf, or a float64
// between two float32 neighbours.
func (s *fuzzSrc) border() float64 {
	switch sel := s.take(1); sel % 8 {
	case 0:
		return math.Inf(int(sel/8)%2*2 - 1)
	case 1:
		return s.coord() + 1e-9
	}
	return s.coord()
}

// fuzzLeaf bulk-loads 1–40 segments from src into a tree of dims
// dimensions: degenerate validities, stationary points, and coordinates
// running either way along an axis. They fit one leaf, the root.
func fuzzLeaf(t *testing.T, src *fuzzSrc, dims int) *rtree.Tree {
	t.Helper()
	var entries []rtree.LeafEntry
	for n := 1 + int(src.take(1))%40; len(entries) < n; {
		seg := geom.Segment{Start: make(geom.Point, dims), End: make(geom.Point, dims)}
		for i := 0; i < dims; i++ {
			seg.Start[i], seg.End[i] = src.coord(), src.coord()
		}
		seg.T.Lo = src.coord()
		switch sel := src.take(1); sel % 3 {
		case 0:
			seg.T.Hi = seg.T.Lo // degenerate
		case 1:
			seg.T.Hi = float64(float32(seg.T.Lo + float64(sel/3)/4))
		default:
			seg.T.Hi = src.coord()
		}
		if !(seg.T.Hi >= seg.T.Lo) || math.IsInf(seg.T.Hi, 0) {
			seg.T.Hi = seg.T.Lo
		}
		entries = append(entries, rtree.LeafEntry{ID: rtree.ObjectID(len(entries)), Seg: seg})
	}
	cfg := rtree.DefaultConfig()
	cfg.Dims = dims
	tree, err := rtree.BulkLoad(cfg, pager.NewMemStore(), entries)
	if err != nil {
		t.Fatal(err)
	}
	if _, level, _ := tree.Root(); level != 0 {
		t.Fatalf("%d segments take more than one leaf", len(entries))
	}
	return tree
}

// fuzzTrajectory deals 1–6 keys of dims dimensions: key times on a grid,
// a hair apart or at the leaf's validity ends; windows that are points,
// pass through the leaf's coordinates, or leap clear of the previous one so
// that a border crosses where the opposite border was.
func fuzzTrajectory(src *fuzzSrc, dims int, leaf []rtree.LeafEntry) (*Trajectory, error) {
	pick := func() geom.Segment { return leaf[int(src.take(1))%len(leaf)].Seg }
	keys := make([]Key, 1+int(src.take(1))%6)
	for j := range keys {
		var tk float64
		switch sel := src.take(1); sel % 4 {
		case 0:
			tk = pick().T.Lo
		case 1:
			tk = pick().T.Hi
		default:
			tk = src.coord()
		}
		if j > 0 && !(tk > keys[j-1].T) {
			tk = keys[j-1].T + float64(src.take(1)%8)/4
			if tk == keys[j-1].T {
				tk = math.Nextafter(tk, math.Inf(1))
			}
		}
		w := make(geom.Box, dims)
		for i := range w {
			lo, hi := src.border(), src.border()
			switch sel := src.take(1); sel % 5 {
			case 0:
				hi = lo // a point: its borders touch
			case 1:
				s := pick()
				lo, hi = min(s.Start[i], s.End[i]), max(s.Start[i], s.End[i])
			case 2:
				if j > 0 { // clear of the previous window along this axis
					prev := keys[j-1].Window[i]
					lo, hi = prev.Hi, prev.Hi+prev.Length()+float64(sel/5)
				}
			}
			if lo > hi {
				lo, hi = hi, lo
			}
			w[i] = geom.Interval{Lo: lo, Hi: hi}
		}
		keys[j] = Key{T: tk, Window: w}
	}
	return New(keys)
}

func sameSet(a, b *geom.IntervalSet) bool {
	x, y := a.Intervals(), b.Intervals()
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i].Lo) != math.Float64bits(y[i].Lo) || math.Float64bits(x[i].Hi) != math.Float64bits(y[i].Hi) {
			return false
		}
	}
	return true
}

// checkOverlapMotion builds a leaf and a trajectory from data and requires,
// for every entry of the leaf, that the reference (ref_test.go) on the
// decoded entry, OverlapSegment on the decoded entry, and OverlapMotion on
// the forms EntryLines reads off the page return the same episodes, bit for
// bit; and that OverlapBox returns the reference's episodes for the entry's
// box. It returns how many entries had an episode.
func checkOverlapMotion(t *testing.T, data []byte) (hits int) {
	t.Helper()
	src := &fuzzSrc{b: data}
	dims := 1 + int(src.take(1))%3
	tree := fuzzLeaf(t, src, dims)
	root, _, _ := tree.Root()
	leaf, err := tree.Load(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := fuzzTrajectory(src, dims, leaf.Entries)
	if err != nil {
		return 0 // two keys at one time after all
	}
	x := make([]geom.Linear, dims)
	var e rtree.LeafEntry
	var want, got, onPage geom.IntervalSet
	err = tree.View(root, nil, func(v rtree.NodeView) error {
		for k := 0; k < v.Len(); k++ {
			v.Entry(k, &e)
			want.Reset()
			got.Reset()
			onPage.Reset()
			refOverlapSegment(tr, e.Seg, &want)
			tr.OverlapSegment(e.Seg, &got)
			if tr.Instant() {
				onPage = got // a single key is tested on the decoded entry only
			} else {
				tr.OverlapMotion(v.EntryLines(k, x), x, &onPage)
			}
			if !sameSet(&want, &got) || !sameSet(&want, &onPage) {
				t.Fatalf("%d keys %+v, entry %+v:\n reference      %v\n OverlapSegment %v\n on the page    %v",
					len(tr.keys), tr.keys, e.Seg, want.Intervals(), got.Intervals(), onPage.Intervals())
			}
			if !want.Empty() {
				hits++
			}
			box := e.Box(dims)
			want.Reset()
			got.Reset()
			refOverlapBox(tr, box, &want)
			tr.OverlapBox(box, &got)
			if !sameSet(&want, &got) {
				t.Fatalf("%d keys %+v, box %v:\n reference  %v\n OverlapBox %v", len(tr.keys), tr.keys, box, want.Intervals(), got.Intervals())
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return hits
}

// FuzzOverlapMotion: whatever the trajectory — one to six keys in one to
// three dimensions, point windows, borders through the leaf's coordinates,
// windows leaping clear of the last — and whatever the leaf holds, the
// predictive leaf test on the page returns the floats the test on the
// decoded entry returned before the borders were precomputed.
func FuzzOverlapMotion(f *testing.F) {
	r := rand.New(rand.NewSource(29))
	for i := 0; i < 12; i++ {
		data := make([]byte, 700)
		r.Read(data)
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{3}, 400)) // one value everywhere: every segment a point
	f.Fuzz(func(t *testing.T, data []byte) {
		checkOverlapMotion(t, data)
	})
}

// The same comparison over many random inputs, requiring enough of them to
// see something that the comparison is not of empty sets alone.
func TestOverlapMotionMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	hits := 0
	for i := 0; i < 600; i++ {
		data := make([]byte, 64+r.Intn(1024))
		r.Read(data)
		hits += checkOverlapMotion(t, data)
	}
	if hits < 300 {
		t.Fatalf("only %d entries with an episode compared: the trajectories miss the leaves", hits)
	}
}
