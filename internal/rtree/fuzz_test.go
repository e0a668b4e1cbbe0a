package rtree

import (
	"math"
	"testing"

	"dynq/internal/geom"
	"dynq/internal/pager"
)

// checkViewMatchesDecode opens one page both ways. The view and DecodePage
// must agree on accept/reject, and on accept every entry read through the
// view must equal the decoded node's. It returns the decoded node (nil if
// the page was rejected).
func checkViewMatchesDecode(t *testing.T, cfg Config, page []byte) *Node {
	t.Helper()
	n, derr := DecodePage(cfg, 7, page)
	v, verr := openView(cfg, 7, page)
	if (derr == nil) != (verr == nil) {
		t.Fatalf("DecodePage err = %v, openView err = %v", derr, verr)
	}
	if derr != nil {
		return nil
	}
	if n == nil {
		t.Fatal("nil node with nil error")
	}
	if n.ID != 7 || v.Level() != n.Level || v.Leaf() != n.Leaf() || v.Len() != n.Len() || v.Stamp() != n.Stamp {
		t.Fatalf("view header (level %d len %d stamp %d) != node (id %d level %d len %d stamp %d)",
			v.Level(), v.Len(), v.Stamp(), n.ID, n.Level, n.Len(), n.Stamp)
	}
	// Compare bit patterns: a corrupt page may hold NaNs.
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	var e LeafEntry
	box := make(geom.Box, cfg.boxDims())
	probe := make(geom.Box, cfg.boxDims())
	for i := range probe {
		probe[i] = geom.Interval{Lo: 0.5, Hi: 50}
	}
	for k := 0; k < v.Len(); k++ {
		if v.Leaf() {
			want := n.Entries[k]
			v.Entry(k, &e)
			id, tLo := v.EntryKey(k)
			ok := e.ID == want.ID && id == want.ID && same(tLo, want.Seg.T.Lo) &&
				same(e.Seg.T.Lo, want.Seg.T.Lo) && same(e.Seg.T.Hi, want.Seg.T.Hi) &&
				len(e.Seg.Start) == cfg.Dims && len(e.Seg.End) == cfg.Dims
			for i := 0; ok && i < cfg.Dims; i++ {
				ok = same(e.Seg.Start[i], want.Seg.Start[i]) && same(e.Seg.End[i], want.Seg.End[i])
			}
			if et := v.EntryTime(k); !ok || !same(et.Lo, want.Seg.T.Lo) || !same(et.Hi, want.Seg.T.Hi) {
				t.Fatalf("leaf entry %d: view %+v, decoded %+v", k, e, want)
			}
			own := want.Box(cfg.Dims)
			for _, q := range []geom.Box{own, probe} {
				if got, exp := v.EntryOverlaps(k, q), own.Overlaps(q); got != exp {
					t.Fatalf("leaf entry %d: EntryOverlaps(%v) = %v, Box.Overlaps = %v", k, q, got, exp)
				}
			}
			continue
		}
		want := n.Children[k]
		v.ChildBox(k, box)
		ok := v.ChildID(k) == want.ID && len(want.Box) == len(box) &&
			same(v.ChildStartTimes(k).Lo, want.Box[cfg.Dims].Lo) && same(v.ChildStartTimes(k).Hi, want.Box[cfg.Dims].Hi)
		for i := 0; ok && i < len(box); i++ {
			ok = same(box[i].Lo, want.Box[i].Lo) && same(box[i].Hi, want.Box[i].Hi)
		}
		if !ok {
			t.Fatalf("child %d: view %d %v, decoded %d %v", k, v.ChildID(k), box, want.ID, want.Box)
		}
		for _, q := range []geom.Box{want.Box, probe} {
			if got, exp := v.ChildOverlaps(k, q), want.Box.Overlaps(q); got != exp {
				t.Fatalf("child %d: ChildOverlaps(%v) = %v, Box.Overlaps = %v", k, q, got, exp)
			}
		}
	}
	return n
}

// FuzzDecodePage asserts the node codec's contract on hostile input:
// whatever bytes a corrupt page contains, DecodePage and the page view
// both return an error or agree on a well-formed node — neither panics or
// over-reads. A decoded node must also survive re-encoding (its entry
// counts fit the fanout).
func FuzzDecodePage(f *testing.F) {
	// Seed with real encodings: a leaf and an internal page in both
	// temporal layouts, plus degenerate headers.
	for _, dual := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.DualTime = dual
		leaf := &Node{Level: 0, Stamp: 3}
		for i := 0; i < 4; i++ {
			leaf.Entries = append(leaf.Entries, LeafEntry{
				ID: ObjectID(i),
				Seg: geom.Segment{
					Start: geom.Point{float64(i), 0},
					End:   geom.Point{float64(i) + 1, 1},
					T:     geom.Interval{Lo: 0, Hi: 1},
				},
			})
		}
		buf := make([]byte, pager.PageSize)
		if err := encodeNode(cfg, leaf, buf); err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(2), dual, append([]byte(nil), buf...))

		inner := &Node{Level: 1, Stamp: 9}
		box := make(geom.Box, cfg.boxDims())
		for i := range box {
			box[i] = geom.Interval{Lo: 0, Hi: 1}
		}
		inner.Children = []Child{{ID: 5, Box: box}}
		if err := encodeNode(cfg, inner, buf); err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(2), dual, append([]byte(nil), buf...))
	}
	f.Add(uint8(0), false, []byte{})
	f.Add(uint8(7), true, []byte{0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, dims uint8, dual bool, data []byte) {
		cfg := DefaultConfig()
		cfg.Dims = 1 + int(dims%8)
		cfg.DualTime = dual
		page := make([]byte, pager.PageSize)
		copy(page, data)
		n := checkViewMatchesDecode(t, cfg, page)
		if n == nil {
			return
		}
		out := make([]byte, pager.PageSize)
		if err := encodeNode(cfg, n, out); err != nil {
			t.Fatalf("decoded node does not re-encode: %v", err)
		}
	})
}
