package rtree

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"dynq/internal/geom"
	"dynq/internal/pager"
)

// refOverlapTime is the exact leaf test as it ran before the leaf kernel,
// on a decoded entry: Interval.Intersect on math.Max/Min, and per axis the
// bound ≤ hi and the bound ≥ lo solved separately (the second on the
// negated line) and intersected. internal/geom keeps the same reference
// for its own functions; this copy is what EntryOverlapTime is held to.
func refOverlapTime(s geom.Segment, q geom.Box) geom.Interval {
	meet := func(a, b geom.Interval) geom.Interval {
		return geom.Interval{Lo: math.Max(a.Lo, b.Lo), Hi: math.Min(a.Hi, b.Hi)}
	}
	solveLE := func(l geom.Linear, c float64, w geom.Interval) geom.Interval {
		switch {
		case w.Empty():
			return geom.EmptyInterval()
		case l.B == 0 && l.A <= c:
			return w
		case l.B == 0:
			return geom.EmptyInterval()
		}
		tc := l.T0 + (c-l.A)/l.B
		if l.B > 0 {
			return meet(w, geom.Interval{Lo: math.Inf(-1), Hi: tc})
		}
		return meet(w, geom.Interval{Lo: tc, Hi: math.Inf(1)})
	}
	d := s.Dims()
	w := meet(s.T, q[d])
	for i := 0; i < d && !w.Empty(); i++ {
		l := s.Coord(i)
		w = meet(solveLE(l, q[i].Hi, w), solveLE(geom.Linear{A: -l.A, B: -l.B, T0: l.T0}, -q[i].Lo, w))
	}
	return w
}

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

// bound deals a query border: anything coord deals, ±Inf, a float64 that
// falls between two float32 neighbours, or any NaN-free bit pattern.
func (s *fuzzSrc) bound() float64 {
	switch sel := s.take(1); sel % 8 {
	case 0:
		return math.Inf(int(sel/8)%2*2 - 1)
	case 1:
		return s.coord() + 1e-9
	case 2:
		if f := math.Float64frombits(s.take(8)); f == f {
			return f
		}
	}
	return s.coord()
}

// boxQuery and exactQuery are a Query over a box as given, dual-space or
// exact, classified as Fill classifies its boxes.
func boxQuery(box geom.Box) *Query {
	q := &Query{Box: box}
	q.classify()
	return q
}

func exactQuery(exact geom.Box) *Query {
	q := &Query{Exact: exact}
	q.classify()
	return q
}

// gate is which way NextOverlap's gate goes on one entry of an ordered query.
type gate int

const (
	gatePass     gate = iota // no axis beyond a border
	gateDeclined             // an axis beyond a border too near to prove the miss: ClipLine decides
	gateValidity             // rejected: valid outside the window
	gateBorder               // rejected: an axis beyond a border, far enough
)

// gateOutcome says which way the gate must go on a decoded segment and an
// ordered exact box: the validity test as Interval.Intersect's emptiness,
// the border test as geom.ClipMisses, which it must equal.
func gateOutcome(s geom.Segment, box geom.Box) gate {
	d := s.Dims()
	if s.T.Intersect(box[d]).Empty() {
		return gateValidity
	}
	g := gatePass
	for i := 0; i < d; i++ {
		x0, x1, b := s.Start[i], s.End[i], box[i]
		if geom.ClipMisses(s.T.Lo, x0, s.T.Hi, x1, b.Lo, b.Hi) {
			return gateBorder
		}
		if max(x0, x1) < b.Lo || min(x0, x1) > b.Hi {
			g = gateDeclined
		}
	}
	return g
}

// kernelCounts is what checkLeafKernel compared: non-empty overlaps, the
// entries of ordered queries by the gate's outcome, and the entries of
// queries with a NaN bound.
type kernelCounts struct{ hits, validity, border, declined, nan int }

func (c *kernelCounts) add(o kernelCounts) {
	c.hits, c.validity, c.border, c.declined, c.nan = c.hits+o.hits, c.validity+o.validity, c.border+o.border, c.declined+o.declined, c.nan+o.nan
}

// checkLeafKernel builds one leaf from src under cfg, draws exact boxes —
// from src, from the entries' own coordinates so that borders touch, and
// from those nudged a few float64 ulps either way so that they nearly do,
// now and then with one bound NaN — and requires EntryOverlapTime to return
// what OverlapTimeInBox returns for the decoded entry and, for a NaN-free
// box, what the reference returns: the same bits in Lo and Hi, or both
// empty. On an ordered box the gate (nextCandidate) must reject exactly
// the entries gateOutcome says it rejects. A NextOverlap scan of the leaf
// must stop at exactly the non-empty ones.
func checkLeafKernel(t *testing.T, cfg Config, data []byte) (counts kernelCounts) {
	t.Helper()
	src := &fuzzSrc{b: data}
	d := cfg.Dims
	leaf := &Node{ID: 7}
	for n := 1 + int(src.take(1))%cfg.MaxLeafEntries(); len(leaf.Entries) < n; {
		e := LeafEntry{ID: ObjectID(len(leaf.Entries)), Seg: geom.Segment{Start: make(geom.Point, d), End: make(geom.Point, d)}}
		for i := 0; i < d; i++ {
			e.Seg.Start[i], e.Seg.End[i] = src.coord(), src.coord()
		}
		e.Seg.T = geom.Interval{Lo: src.coord(), Hi: src.coord()} // inverted validity included: the page format allows it
		leaf.Entries = append(leaf.Entries, e)
	}
	page := make([]byte, pager.PageSize)
	if err := encodeNode(cfg, leaf, page); err != nil {
		t.Fatal(err)
	}
	v, err := openView(cfg, 7, page)
	if err != nil {
		t.Fatal(err)
	}
	bits := func(a geom.Interval) [2]uint64 { return [2]uint64{math.Float64bits(a.Lo), math.Float64bits(a.Hi)} }
	same := func(a, b geom.Interval) bool { return (a.Empty() && b.Empty()) || bits(a) == bits(b) }
	// nudge moves x 1–4 float64 ulps up or down, as src says.
	nudge := func(x float64) float64 {
		sel := src.take(1)
		dir := math.Inf(int(sel%2)*2 - 1)
		for n := 1 + sel/2%4; n > 0; n-- {
			x = math.Nextafter(x, dir)
		}
		return x
	}
	box := make(geom.Box, d+1)
	var e LeafEntry
	for round := 0; round < 6; round++ {
		for i := range box {
			box[i] = geom.Interval{Lo: src.bound(), Hi: src.bound()}
		}
		if round%3 != 0 { // borders through, or a few ulps off, one entry's end points and validity
			own := leaf.Entries[int(src.take(1))%len(leaf.Entries)].Seg
			for i := 0; i < d; i++ {
				box[i] = geom.Interval{Lo: min(own.Start[i], own.End[i]), Hi: max(own.Start[i], own.End[i])}
				if round%3 == 2 {
					box[i] = geom.Interval{Lo: nudge(box[i].Lo), Hi: nudge(box[i].Hi)}
				}
			}
			box[d] = geom.Interval{Lo: own.T.Hi, Hi: own.T.Hi + float64(src.take(1))}
		}
		nan := false
		if sel := src.take(1); sel%16 == 1 { // one bound NaN: a query the API refuses
			if b := &box[int(sel/32)%len(box)]; sel&16 == 0 {
				b.Lo = math.NaN()
			} else {
				b.Hi = math.NaN()
			}
			nan = true
		}
		ordered := true
		for _, b := range box {
			ordered = ordered && b.Lo <= b.Hi
		}
		q := exactQuery(box)
		if q.ordered != ordered {
			t.Fatalf("box %v classified ordered=%v", box, q.ordered)
		}
		matches := map[int]geom.Interval{}
		for k := 0; k < v.Len(); k++ {
			v.Entry(k, &e)
			got, decoded := v.EntryOverlapTime(k, q), e.Seg.OverlapTimeInBox(box)
			want := refOverlapTime(e.Seg, box)
			if nan {
				want = decoded
				counts.nan++
			}
			if !want.Empty() {
				counts.hits++
			}
			if !got.Empty() {
				matches[k] = got
			}
			if !same(got, want) || !same(got, decoded) {
				t.Fatalf("dims %d dual %v entry %+v in %v:\n in place  %v (%x)\n reference %v (%x)\n decoded   %v", d, cfg.DualTime, e.Seg, box,
					got, bits(got), want, bits(want), decoded)
			}
			if !ordered {
				continue
			}
			passed := v.nextCandidate(k, k+1, q) == k
			switch g := gateOutcome(e.Seg, box); g {
			case gateValidity, gateBorder:
				if passed {
					t.Fatalf("dims %d dual %v entry %+v in %v: the gate passed it, want a rejection (%d)", d, cfg.DualTime, e.Seg, box, g)
				}
				if g == gateValidity {
					counts.validity++
				} else {
					counts.border++
				}
			default:
				if !passed {
					t.Fatalf("dims %d dual %v entry %+v in %v: the gate rejected it (%d)", d, cfg.DualTime, e.Seg, box, g)
				}
				if g == gateDeclined {
					counts.declined++
				}
			}
		}
		for k := 0; ; k++ {
			var ov geom.Interval
			if k, ov = v.NextOverlap(k, v.Len(), q); k == v.Len() {
				break
			}
			if want, ok := matches[k]; !ok || !same(ov, want) {
				t.Fatalf("NextOverlap stopped at entry %d with %v; EntryOverlapTime there is %v (a match: %v)", k, ov, want, ok)
			}
			delete(matches, k)
		}
		if len(matches) != 0 {
			t.Fatalf("NextOverlap scanned past the matches %v", matches)
		}
	}
	return counts
}

// refEntryOverlaps is the leaf box test as EntryOverlaps ran it before
// NextBoxOverlap, one entry per call: each spatial extent sorted, then
// Interval.Overlaps (builtin max/min) against the query, the start and end
// times as point intervals.
func refEntryOverlaps(v NodeView, k int, q geom.Box) bool {
	e := v.entry(k)
	d := int(v.dims)
	for i := 0; i < d; i++ {
		lo, hi := f32At(e, 8+4*i), f32At(e, 8+4*(d+i))
		if lo > hi {
			lo, hi = hi, lo
		}
		if !(geom.Interval{Lo: lo, Hi: hi}).Overlaps(q[i]) {
			return false
		}
	}
	t := intervalAt(e, 8+8*d)
	return geom.IntervalOf(t.Lo).Overlaps(q[d]) && geom.IntervalOf(t.Hi).Overlaps(q[d+1])
}

// boxCoord deals a value a leaf may hold for the box test: anything coord
// deals, ±Inf, or NaN (a page written by replaying a log older than the
// API's finiteness check).
func (s *fuzzSrc) boxCoord() float64 {
	switch sel := s.take(1); sel % 16 {
	case 0:
		return math.Inf(int(sel/16)%2*2 - 1)
	case 1:
		return math.NaN()
	}
	return s.coord()
}

// boxCounts is what checkBoxScan compared: entries whose box meets the query
// and entries whose box misses it, for queries the scan compares directly
// and for those with a NaN bound or an inverted extent.
type boxCounts struct{ hits, misses, oddHits, oddMisses int }

func (c *boxCounts) add(o boxCounts) {
	c.hits, c.misses, c.oddHits, c.oddMisses = c.hits+o.hits, c.misses+o.misses, c.oddHits+o.oddHits, c.oddMisses+o.oddMisses
}

// checkBoxScan builds one leaf from src under cfg — f32 edges, ±0, ±Inf and
// NaN among its values — and draws dual-space query boxes: from src, with
// borders through one entry's own values so that they touch, and then with
// one extent inverted or one bound NaN now and then. EntryOverlaps must be
// refEntryOverlaps on every entry, and a NextBoxOverlap scan from any entry
// to any end must stop at the first one of them that refEntryOverlaps
// accepts.
func checkBoxScan(t *testing.T, cfg Config, data []byte) (counts boxCounts) {
	t.Helper()
	src := &fuzzSrc{b: data}
	d := cfg.Dims
	leaf := &Node{ID: 7}
	for n := 1 + int(src.take(1))%cfg.MaxLeafEntries(); len(leaf.Entries) < n; {
		e := LeafEntry{ID: ObjectID(len(leaf.Entries)), Seg: geom.Segment{Start: make(geom.Point, d), End: make(geom.Point, d)}}
		for i := 0; i < d; i++ {
			e.Seg.Start[i], e.Seg.End[i] = src.boxCoord(), src.boxCoord()
		}
		e.Seg.T = geom.Interval{Lo: src.boxCoord(), Hi: src.boxCoord()}
		leaf.Entries = append(leaf.Entries, e)
	}
	page := make([]byte, pager.PageSize)
	if err := encodeNode(cfg, leaf, page); err != nil {
		t.Fatal(err)
	}
	v, err := openView(cfg, 7, page)
	if err != nil {
		t.Fatal(err)
	}
	n := v.Len()
	q := make(geom.Box, d+2)
	want := make([]bool, n)
	for round := 0; round < 8; round++ {
		for i := range q {
			lo, hi := src.bound(), src.bound()
			q[i] = geom.Interval{Lo: min(lo, hi), Hi: max(lo, hi)}
		}
		if round%2 == 1 { // borders through one entry's values, as a window touching it would have
			own := leaf.Entries[int(src.take(1))%n].Seg
			for i := 0; i < d; i++ {
				lo, hi := float64(float32(own.Start[i])), float64(float32(own.End[i]))
				switch src.take(1) % 3 {
				case 0:
					q[i].Hi = min(lo, hi)
					q[i].Lo = min(q[i].Lo, q[i].Hi)
				case 1:
					q[i].Lo = max(lo, hi)
					q[i].Hi = max(q[i].Lo, q[i].Hi)
				default:
					q[i] = geom.Interval{Lo: min(lo, hi), Hi: max(lo, hi)}
				}
			}
			t0, t1 := float64(float32(own.T.Lo)), float64(float32(own.T.Hi))
			q[d] = geom.Interval{Lo: min(q[d].Lo, t0), Hi: t0}
			q[d+1] = geom.Interval{Lo: t1, Hi: max(q[d+1].Hi, t1)}
		}
		switch sel := src.take(1); sel % 8 {
		case 0: // one extent inverted
			if i := int(sel/8) % len(q); q[i].Lo < q[i].Hi {
				q[i].Lo, q[i].Hi = q[i].Hi, q[i].Lo
			}
		case 1: // one bound NaN
			if i := int(sel/8) % len(q); sel&0x80 == 0 {
				q[i].Lo = math.NaN()
			} else {
				q[i].Hi = math.NaN()
			}
		}
		odd := false
		for _, b := range q {
			odd = odd || !(b.Lo <= b.Hi)
		}
		bq := boxQuery(q)
		for k := 0; k < n; k++ {
			want[k] = refEntryOverlaps(v, k, q)
			switch {
			case want[k] && odd:
				counts.oddHits++
			case want[k]:
				counts.hits++
			case odd:
				counts.oddMisses++
			default:
				counts.misses++
			}
			if got := v.EntryOverlaps(k, bq); got != want[k] {
				e := leaf.Entries[k]
				t.Fatalf("dims %d dual %v entry %d %+v, query %v: EntryOverlaps %v, reference %v", d, cfg.DualTime, k, e.Seg, q, got, want[k])
			}
		}
		for from := 0; from <= n; from++ {
			to := from + int(src.take(1))%(n-from+1)
			if src.take(1)%2 == 0 {
				to = n
			}
			next := from
			for next < to && !want[next] {
				next++
			}
			if got := v.NextBoxOverlap(from, to, bq); got != next {
				t.Fatalf("dims %d dual %v, query %v: NextBoxOverlap(%d, %d) = %d, reference %d", d, cfg.DualTime, q, from, to, got, next)
			}
		}
	}
	return counts
}

// checkChooseChild builds one internal page from src under cfg, its child
// boxes as dealt (mostly empty: an inverted extent) or sorted, and requires
// chooseChild to pick, for boxes dealt the same way and for stored ones,
// the child refChooseChild picks among the decoded children. A real tree
// stores no empty child box, so only this test reaches that branch.
func checkChooseChild(t *testing.T, cfg Config, data []byte) {
	t.Helper()
	src := &fuzzSrc{b: data}
	deal := func() geom.Box {
		box := make(geom.Box, cfg.boxDims())
		sorted := src.take(1)%4 != 0
		for k := range box {
			lo, hi := src.coord(), src.coord()
			if sorted {
				lo, hi = min(lo, hi), max(lo, hi)
			}
			box[k] = geom.Interval{Lo: lo, Hi: hi}
		}
		return box
	}
	inner := &Node{ID: 7, Level: 1}
	for n := 1 + int(src.take(1))%cfg.MaxInternalEntries(); len(inner.Children) < n; {
		inner.Children = append(inner.Children, Child{Box: deal(), ID: pager.PageID(len(inner.Children))})
	}
	page := make([]byte, pager.PageSize)
	if err := encodeNode(cfg, inner, page); err != nil {
		t.Fatal(err)
	}
	v, err := openView(cfg, 7, page)
	if err != nil {
		t.Fatal(err)
	}
	stored := v.node().Children
	for round := 0; round < 8; round++ {
		b := deal()
		if round%2 == 1 {
			b = stored[int(src.take(1))%len(stored)].Box
		}
		if got, want := v.chooseChild(b), refChooseChild(stored, b); got != want {
			t.Fatalf("dims %d dual %v, %d children, box %v: chooseChild %d (%v), reference %d (%v)",
				cfg.Dims, cfg.DualTime, len(stored), b, got, stored[got].Box, want, stored[want].Box)
		}
	}
}

// The one-pass descent kernel picks the child the Box methods pick, in
// both layouts and one to three dimensions.
func TestChooseChildMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	for i := 0; i < 600; i++ {
		data := make([]byte, 64+r.Intn(4096))
		r.Read(data)
		checkChooseChild(t, leafKernelConfig(uint8(i), i%2 == 0), data)
	}
}

func leafKernelConfig(dims uint8, dual bool) Config {
	cfg := DefaultConfig()
	cfg.Dims = 1 + int(dims)%3
	cfg.DualTime = dual
	return cfg
}

// A NaN window (the public API refuses one) makes every entry a miss, on
// the page and in OverlapTimeInBox alike: the running overlap is NaN, and
// both stop while Lo ≤ Hi fails.
func TestEntryOverlapTimeNaNWindow(t *testing.T) {
	cfg := DefaultConfig()
	seg := geom.Segment{Start: geom.Point{1, 1}, End: geom.Point{2, 2}, T: geom.Interval{Lo: 0, Hi: 10}}
	page := make([]byte, pager.PageSize)
	if err := encodeNode(cfg, &Node{ID: 7, Entries: []LeafEntry{{ID: 1, Seg: seg}}}, page); err != nil {
		t.Fatal(err)
	}
	v, err := openView(cfg, 7, page)
	if err != nil {
		t.Fatal(err)
	}
	nan := math.NaN()
	exact := geom.Box{{Lo: 5, Hi: 6}, {Lo: 0, Hi: 9}, {Lo: nan, Hi: nan}}
	got, want := v.EntryOverlapTime(0, exactQuery(exact)), seg.OverlapTimeInBox(exact)
	if !got.Empty() || !want.Empty() {
		t.Fatalf("NaN window: EntryOverlapTime %v, OverlapTimeInBox %v, want both empty", got, want)
	}
}

// The box scan decides as the per-entry test it replaced: random leaves in
// both layouts and one to three dimensions, NaN and infinite values among
// them, against random, touching, inverted and NaN-bounded query boxes. Both
// of the scan's ways — the comparisons and the fallback for an odd query —
// see entries that meet the box and entries that miss it.
func TestNextBoxOverlapMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	var counts boxCounts
	for i := 0; i < 600; i++ {
		data := make([]byte, 64+r.Intn(2048))
		r.Read(data)
		counts.add(checkBoxScan(t, leafKernelConfig(uint8(i), i%2 == 0), data))
	}
	t.Logf("%+v", counts)
	if counts.hits < 20000 || counts.misses < 50000 || counts.oddHits < 1500 || counts.oddMisses < 50000 {
		t.Fatalf("compared %+v: the boxes miss the point", counts)
	}
}

// The in-place exact test is the old test, bit for bit: random leaves in
// both layouts and one to three dimensions against random boxes, some with
// a NaN bound. Each of the gate's ways is taken often and held to its
// outcome: rejecting an entry valid outside the window, rejecting one
// beyond a border, and leaving a border too near to prove to ClipLine. A
// gate that never fires, or fires without the margin, fails here.
func TestEntryOverlapTimeMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	var counts kernelCounts
	for i := 0; i < 600; i++ {
		data := make([]byte, 64+r.Intn(2048))
		r.Read(data)
		counts.add(checkLeafKernel(t, leafKernelConfig(uint8(i), i%2 == 0), data))
	}
	t.Logf("%+v", counts)
	if counts.hits < 1000 || counts.validity < 50000 || counts.border < 4000 || counts.declined < 500 || counts.nan < 2000 {
		t.Fatalf("compared %+v: the boxes miss the point", counts)
	}
}
