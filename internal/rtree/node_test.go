package rtree

import (
	"math"
	"testing"

	"dynq/internal/geom"
	"dynq/internal/pager"
)

func TestFanoutsMatchPaper(t *testing.T) {
	// Section 5: "Page size is 4KB ... Fanout is 145 and 127 for
	// internal- and leaf-level nodes respectively."
	cfg := DefaultConfig()
	if got := cfg.MaxInternalEntries(); got != 145 {
		t.Errorf("internal fanout = %d, want 145", got)
	}
	if got := cfg.MaxLeafEntries(); got != 127 {
		t.Errorf("leaf fanout = %d, want 127", got)
	}
	// The dual-temporal-axes layout trades fanout for NPDQ pruning power.
	dual := cfg
	dual.DualTime = true
	if got := dual.MaxInternalEntries(); got != 113 {
		t.Errorf("dual internal fanout = %d, want 113", got)
	}
	if got := dual.MaxLeafEntries(); got != 127 {
		t.Errorf("dual leaf fanout = %d, want 127 (leaf layout is unchanged)", got)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Dims: 0, MinFill: 0.4, BulkFill: 0.5},
		{Dims: 9, MinFill: 0.4, BulkFill: 0.5},
		{Dims: 2, MinFill: 0, BulkFill: 0.5},
		{Dims: 2, MinFill: 0.6, BulkFill: 0.5},
		{Dims: 2, MinFill: 0.4, BulkFill: 0},
		{Dims: 2, MinFill: 0.4, BulkFill: 1.5},
	}
	for _, cfg := range bad {
		if _, err := New(cfg, pager.NewMemStore()); err == nil {
			t.Errorf("config %+v should be rejected", cfg)
		}
	}
	if _, err := New(DefaultConfig(), pager.NewMemStore()); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func mkEntry(id ObjectID, t0, t1, x0, y0, x1, y1 float64) LeafEntry {
	return LeafEntry{ID: id, Seg: geom.Segment{
		T:     geom.Interval{Lo: t0, Hi: t1},
		Start: geom.Point{x0, y0},
		End:   geom.Point{x1, y1},
	}}
}

func TestLeafNodeRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	n := &Node{ID: 7, Level: 0, Stamp: 42}
	for i := 0; i < 5; i++ {
		f := float64(i)
		n.Entries = append(n.Entries, mkEntry(ObjectID(i), f, f+1, f*2, f*3, f*2+1, f*3+1))
	}
	buf := make([]byte, pager.PageSize)
	if err := encodeNode(cfg, n, buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := decodeNode(cfg, 7, buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Level != 0 || got.Stamp != 42 || len(got.Entries) != 5 {
		t.Fatalf("header mismatch: %+v", got)
	}
	for i, e := range got.Entries {
		want := n.Entries[i]
		if e.ID != want.ID || e.Seg.T != want.Seg.T ||
			e.Seg.Start[0] != want.Seg.Start[0] || e.Seg.End[1] != want.Seg.End[1] {
			t.Errorf("entry %d mismatch: got %+v want %+v", i, e, want)
		}
	}
}

func TestInternalNodeRoundTripSingle(t *testing.T) {
	cfg := DefaultConfig()
	n := &Node{ID: 3, Level: 2, Stamp: 9}
	n.Children = []Child{
		{Box: geom.Box{{Lo: 0, Hi: 1}, {Lo: 2, Hi: 3}, {Lo: 4, Hi: 4.5}, {Lo: 5, Hi: 6}}, ID: 11},
		{Box: geom.Box{{Lo: -1, Hi: 0}, {Lo: 0, Hi: 0}, {Lo: 1, Hi: 2}, {Lo: 2, Hi: 3}}, ID: 12},
	}
	buf := make([]byte, pager.PageSize)
	if err := encodeNode(cfg, n, buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := decodeNode(cfg, 3, buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Level != 2 || len(got.Children) != 2 || got.Children[0].ID != 11 {
		t.Fatalf("decoded %+v", got)
	}
	// Single layout preserves only the temporal hull: both temporal axes
	// decode to [min start, max end].
	b := got.Children[0].Box
	if b[2] != (geom.Interval{Lo: 4, Hi: 6}) || b[3] != (geom.Interval{Lo: 4, Hi: 6}) {
		t.Errorf("single-layout temporal axes = %v, %v; want hull [4,6]", b[2], b[3])
	}
	// Spatial extents survive exactly (values are f32-representable).
	if b[0] != (geom.Interval{Lo: 0, Hi: 1}) || b[1] != (geom.Interval{Lo: 2, Hi: 3}) {
		t.Errorf("spatial extents = %v", b[:2])
	}
}

func TestInternalNodeRoundTripDual(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DualTime = true
	n := &Node{ID: 3, Level: 1}
	n.Children = []Child{{Box: geom.Box{{Lo: 0, Hi: 1}, {Lo: 2, Hi: 3}, {Lo: 4, Hi: 4.5}, {Lo: 5, Hi: 6}}, ID: 11}}
	buf := make([]byte, pager.PageSize)
	if err := encodeNode(cfg, n, buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := decodeNode(cfg, 3, buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	b := got.Children[0].Box
	if b[2] != (geom.Interval{Lo: 4, Hi: 4.5}) || b[3] != (geom.Interval{Lo: 5, Hi: 6}) {
		t.Errorf("dual temporal axes = %v, %v", b[2], b[3])
	}
}

func TestDecodeRejectsLayoutMismatch(t *testing.T) {
	single := DefaultConfig()
	dual := single
	dual.DualTime = true
	n := &Node{ID: 1, Level: 1, Children: []Child{{Box: geom.NewBox(4).Cover(geom.Box{{Lo: 0, Hi: 1}, {Lo: 0, Hi: 1}, {Lo: 0, Hi: 1}, {Lo: 0, Hi: 1}}), ID: 2}}}
	buf := make([]byte, pager.PageSize)
	if err := encodeNode(single, n, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeNode(dual, 1, buf); err == nil {
		t.Error("decoding a single-layout page with a dual config should fail")
	}
}

func TestEncodeRejectsOverfullNode(t *testing.T) {
	cfg := DefaultConfig()
	n := &Node{ID: 1, Level: 0}
	for i := 0; i <= cfg.MaxLeafEntries(); i++ {
		n.Entries = append(n.Entries, mkEntry(ObjectID(i), 0, 1, 0, 0, 1, 1))
	}
	buf := make([]byte, pager.PageSize)
	if err := encodeNode(cfg, n, buf); err == nil {
		t.Error("over-full node should not encode")
	}
}

func TestEncodeOutwardRounding(t *testing.T) {
	// Box bounds that are not float32-representable must round outward.
	cfg := DefaultConfig()
	box := geom.Box{{Lo: 0.1, Hi: 0.2}, {Lo: 0.3, Hi: 0.7}, {Lo: 1.1, Hi: 1.3}, {Lo: 2.1, Hi: 2.7}}
	n := &Node{ID: 1, Level: 1, Children: []Child{{Box: box, ID: 5}}}
	buf := make([]byte, pager.PageSize)
	if err := encodeNode(cfg, n, buf); err != nil {
		t.Fatal(err)
	}
	got, err := decodeNode(cfg, 1, buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Children[0].Box.Contains(box) {
		t.Errorf("decoded box %v does not contain original %v", got.Children[0].Box, box)
	}
}

func TestQuantizeSegment(t *testing.T) {
	s := geom.Segment{
		T:     geom.Interval{Lo: 0.1, Hi: 0.2},
		Start: geom.Point{0.3, 0.7},
		End:   geom.Point{1.1, 1.3},
	}
	q := QuantizeSegment(s)
	if q.T.Lo != float64(float32(0.1)) || q.Start[1] != float64(float32(0.7)) {
		t.Error("quantization should round each coordinate to float32")
	}
	// Idempotent.
	if q2 := QuantizeSegment(q); q2.T != q.T || q2.Start[0] != q.Start[0] {
		t.Error("quantization must be idempotent")
	}
}

func TestQueryBox(t *testing.T) {
	q := QueryBox(geom.Box{{Lo: 0, Hi: 8}, {Lo: 0, Hi: 8}}, geom.Interval{Lo: 3, Hi: 4})
	if len(q) != 4 {
		t.Fatalf("query box dims = %d", len(q))
	}
	// Segment alive during [3,4] ⇔ starts ≤ 4 and ends ≥ 3.
	alive := geom.Box{{Lo: 1, Hi: 1}, {Lo: 1, Hi: 1}, {Lo: 2, Hi: 2}, {Lo: 10, Hi: 10}} // segment [2,10] at (1,1)
	if !q.Overlaps(alive) {
		t.Error("live segment should overlap query box")
	}
	dead := geom.Box{{Lo: 1, Hi: 1}, {Lo: 1, Hi: 1}, {Lo: 5, Hi: 5}, {Lo: 10, Hi: 10}} // starts after window
	if q.Overlaps(dead) {
		t.Error("segment starting after the window should not overlap")
	}
	if !math.IsInf(q[2].Lo, -1) || !math.IsInf(q[3].Hi, 1) {
		t.Error("query temporal axes should be half-open")
	}
}
