package trajectory

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
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
		switch sel := src.take(1); sel % 4 {
		case 0:
			seg.T.Hi = seg.T.Lo // degenerate
		case 1:
			seg.T.Hi = float64(float32(seg.T.Lo + float64(sel/4)/4))
		case 2: // a few float32 ulps long: steep if the end points differ
			hi := float32(seg.T.Lo)
			for n := 1 + sel/4%4; n > 0; n-- {
				hi = math.Nextafter32(hi, float32(math.Inf(1)))
			}
			seg.T.Hi = float64(hi)
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

// nudge moves x 1–4 float64 ulps up or down, as the source says.
func (s *fuzzSrc) nudge(x float64) float64 {
	sel := s.take(1)
	dir := math.Inf(int(sel%2)*2 - 1)
	for n := 1 + sel/2%4; n > 0; n-- {
		x = math.Nextafter(x, dir)
	}
	return x
}

// fuzzTrajectory deals 1–6 keys of dims dimensions: key times on a grid,
// a hair apart or at the leaf's validity ends; windows that are points,
// pass through the leaf's coordinates or a few ulps off them, or leap clear
// of the previous one so that a border crosses where the opposite border
// was.
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
			switch sel := src.take(1); sel % 6 {
			case 0:
				hi = lo // a point: its borders touch
			case 1:
				s := pick()
				lo, hi = min(s.Start[i], s.End[i]), max(s.Start[i], s.End[i])
			case 5: // just beyond or inside an entry's end points: the gate's margin
				s := pick()
				lo, hi = src.nudge(min(s.Start[i], s.End[i])), src.nudge(max(s.Start[i], s.End[i]))
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

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
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

// gateCounts tallies what the swept-box gate (geom.SweptBox) did.
type gateCounts struct {
	hits     int // entries with an episode
	rejected int // entries the gate kept from OverlapMotion
	declined int // entries beyond the key windows' hull on an axis, not rejected
	variants int // entries turned NaN, infinite or inverted, the gate declining
}

func (c *gateCounts) add(o gateCounts) {
	c.hits += o.hits
	c.rejected += o.rejected
	c.declined += o.declined
	c.variants += o.variants
}

// beyond reports whether some axis of an entry has both end points
// strictly beyond one border of the hull of the trajectory's key windows.
func beyond(tr *Trajectory, x0, x1 []float64) bool {
	for i := range x0 {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, k := range tr.keys {
			lo, hi = min(lo, k.Window[i].Lo), max(hi, k.Window[i].Hi)
		}
		if gap, _ := geom.BeyondGap(x0[i], x1[i], lo, hi); gap > 0 {
			return true
		}
	}
	return false
}

// checkGate holds the swept-box gate to its promise on one entry: where
// it rejects validity t and end points x0, x1, OverlapMotion on the forms
// EntryLines would make of them and the reference on the same segment are
// both empty.
func checkGate(t *testing.T, tr *Trajectory, tv geom.Interval, x0, x1 []float64) bool {
	t.Helper()
	if !tr.Swept().Rejects(tv.Lo, tv.Hi, x0, x1) {
		return false
	}
	seg := geom.Segment{T: tv, Start: geom.Point(x0), End: geom.Point(x1)}
	x := make([]geom.Linear, len(x0))
	for i := range x {
		x[i] = geom.LinearBetween(tv.Lo, x0[i], tv.Hi, x1[i])
	}
	var got, want geom.IntervalSet
	tr.OverlapMotion(tv, x, &got)
	refOverlapSegment(tr, seg, &want)
	if !got.Empty() || !want.Empty() {
		t.Fatalf("%d keys %+v (swept %+v), entry %+v: the gate rejected it, but\n OverlapMotion %v\n reference     %v",
			len(tr.keys), tr.keys, tr.swept, seg, got.Intervals(), want.Intervals())
	}
	return true
}

// checkOverlapMotion builds a leaf and a trajectory from data and requires,
// for every entry of the leaf, that the reference (ref_test.go) on the
// decoded entry, OverlapSegment on the decoded entry, and OverlapMotion on
// the forms EntryLines reads off the page return the same episodes, bit for
// bit; and that OverlapBox returns the reference's episodes for the entry's
// box. Where the swept-box gate rejects the entry's values, both episode
// sets must be empty (checkGate); PDQ's leaf scan (rtree.NodeView.NextSwept)
// must skip exactly the entries the gate rejects and those never valid
// during the trajectory's span, whose episodes are empty too. Each entry then turns
// into a variant the gate must decline — validity inverted, or a NaN or an
// infinity in its validity or first axis — and, further along, a NaN or an
// infinity on a later axis, where the gate may reject only what stays
// empty.
func checkOverlapMotion(t *testing.T, data []byte) (counts gateCounts) {
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
		return counts // two keys at one time after all
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
				counts.hits++
			}
			tv, x0, x1 := e.Seg.T, []float64(e.Seg.Start), []float64(e.Seg.End)
			rejects := !tr.Instant() && checkGate(t, tr, tv, x0, x1)
			next, rejected := v.NextSwept(k, k+1, math.Inf(-1), tr.Swept())
			if valid := !tv.Intersect(tr.TimeSpan()).Empty(); rejected != b2i(valid && rejects) || (next == k) != (valid && !rejects) ||
				(next != k && !want.Empty()) {
				t.Fatalf("%d keys %+v (swept %+v), entry %+v with episodes %v: the scan skipped %v, rejected %d; the gate rejects %v",
					len(tr.keys), tr.keys, tr.swept, e.Seg, want.Intervals(), next != k, rejected, rejects)
			}
			if !tr.Instant() {
				switch {
				case rejects:
					counts.rejected++
				case beyond(tr, x0, x1):
					counts.declined++
				}
				counts.variants += checkVariant(t, tr, src, tv, x0, x1)
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
	return counts
}

// checkVariant turns an entry's values into one the gate must treat with
// care, as src says, and checks the gate on it: an inverted validity, or a
// NaN or ±Inf in its validity or on its first axis, must be declined; the
// same on a later axis may be rejected only where the episodes stay empty.
// It returns 1 for a variant that must be declined, else 0.
func checkVariant(t *testing.T, tr *Trajectory, src *fuzzSrc, tv geom.Interval, x0, x1 []float64) int {
	t.Helper()
	sel := src.take(1)
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[sel/8%3]
	a, b := slices.Clone(x0), slices.Clone(x1)
	switch sel % 8 {
	case 0:
		if tv.Lo == tv.Hi {
			return 0
		}
		tv.Lo, tv.Hi = tv.Hi, tv.Lo
	case 1:
		tv.Lo = bad
	case 2:
		tv.Hi = bad
	case 3:
		a[0] = bad
	case 4:
		b[0] = bad
	case 5: // a later axis: no promise but the episodes'
		a[len(a)-1] = bad
		checkGate(t, tr, tv, a, b)
		return 0
	default:
		return 0
	}
	if tr.Swept().Rejects(tv.Lo, tv.Hi, a, b) {
		t.Fatalf("%d keys %+v, validity %v, end points %v %v: the gate rejected values its proof does not cover",
			len(tr.keys), tr.keys, tv, a, b)
	}
	return 1
}

// FuzzOverlapMotion: whatever the trajectory — one to six keys in one to
// three dimensions, point windows, borders through the leaf's coordinates
// or a few ulps off them, windows leaping clear of the last — and whatever
// the leaf holds, the predictive leaf test on the page returns the floats
// the test on the decoded entry returned before the borders were
// precomputed, and the swept-box gate rejects only entries both find
// empty (checkOverlapMotion). The seed corpus
// (testdata/fuzz/FuzzOverlapMotion) names its cases: end points on a
// border of the swept box, beyond it by less than the margin and by more,
// instants, ±0, ±MaxFloat32, NaN and infinite variants, inverted validity,
// steep entries valid a few float32 ulps, and one input each that a gate
// mutant fails on (one end point only, the margin dropped, a comparison
// flipped, the box of the first key only).
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
// see something that the comparison is not of empty sets alone, and the
// gate to reject, to decline near a border and to meet its variants often.
func TestOverlapMotionMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	var counts gateCounts
	for i := 0; i < 600; i++ {
		data := make([]byte, 64+r.Intn(1024))
		r.Read(data)
		counts.add(checkOverlapMotion(t, data))
	}
	t.Logf("%+v", counts)
	if counts.hits < 300 || counts.rejected < 150 || counts.declined < 250 || counts.variants < 2000 {
		t.Fatalf("compared %+v: the trajectories miss the leaves or the gate's cases", counts)
	}
}
