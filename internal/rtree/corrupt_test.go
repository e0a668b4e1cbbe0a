package rtree

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"dynq/internal/geom"
	"dynq/internal/pager"
)

// Neither decodeNode nor the page view may panic on corrupted page bytes:
// both return an error, or agree entry for entry on a structurally
// plausible node (counts within fanout). The harness feeds random
// mutations of a valid page and fully random pages, in both temporal
// layouts and for Dims 1–3.
func TestDecodeNodeNeverPanics(t *testing.T) {
	for _, dual := range []bool{false, true} {
		for dims := 1; dims <= 3; dims++ {
			cfg := DefaultConfig()
			cfg.Dims, cfg.DualTime = dims, dual
			t.Run(fmt.Sprintf("dims=%d,dual=%v", dims, dual), func(t *testing.T) { decodeNeverPanics(t, cfg) })
		}
	}
}

func decodeNeverPanics(t *testing.T, cfg Config) {
	layout := byte(0)
	if cfg.DualTime {
		layout = flagDualTime
	}
	// Valid pages to mutate: a leaf and an internal node.
	r := rand.New(rand.NewSource(1))
	point := func() geom.Point {
		p := make(geom.Point, cfg.Dims)
		for i := range p {
			p[i] = r.Float64() * 100
		}
		return p
	}
	leaf := &Node{ID: 1, Level: 0, Stamp: 5}
	inner := &Node{ID: 1, Level: 1, Stamp: 6}
	for i := 0; i < 40; i++ {
		e := LeafEntry{ID: ObjectID(i), Seg: geom.Segment{T: geom.Interval{Lo: float64(i), Hi: float64(i) + 1}, Start: point(), End: point()}}
		leaf.Entries = append(leaf.Entries, e)
		inner.Children = append(inner.Children, Child{ID: pager.PageID(i), Box: e.Box(cfg.Dims)})
	}
	var valid [2][]byte
	for i, n := range []*Node{leaf, inner} {
		valid[i] = make([]byte, pager.PageSize)
		if err := encodeNode(cfg, n, valid[i]); err != nil {
			t.Fatal(err)
		}
		if checkViewMatchesDecode(t, cfg, valid[i]) == nil {
			t.Fatal("valid page rejected")
		}
	}

	check := func(buf []byte) bool {
		defer func() {
			if recover() != nil {
				t.Fatal("decodeNode or the view panicked")
			}
		}()
		node := checkViewMatchesDecode(t, cfg, buf)
		if node == nil {
			return true
		}
		if node.Leaf() {
			return len(node.Entries) <= cfg.MaxLeafEntries()
		}
		return len(node.Children) <= cfg.MaxInternalEntries()
	}

	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		buf := make([]byte, pager.PageSize)
		switch rr.Intn(3) {
		case 0: // random mutations of a valid page
			copy(buf, valid[rr.Intn(2)])
			for k := 0; k < 1+rr.Intn(16); k++ {
				buf[rr.Intn(len(buf))] = byte(rr.Intn(256))
			}
		case 1: // fully random bytes (respecting the layout flag byte)
			rr.Read(buf)
			buf[1] = layout // so the config matches
		case 2: // plausible header, garbage body
			buf[0] = byte(rr.Intn(4))
			buf[1] = layout
			binary.LittleEndian.PutUint16(buf[2:], uint16(rr.Intn(1<<16)))
			rr.Read(buf[16:])
		}
		return check(buf)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// A count field larger than the page can hold must be rejected, not read
// out of bounds.
func TestDecodeNodeRejectsOversizedCount(t *testing.T) {
	cfg := DefaultConfig()
	buf := make([]byte, pager.PageSize)
	buf[0] = 0 // leaf
	binary.LittleEndian.PutUint16(buf[2:], 60000)
	if _, err := decodeNode(cfg, 1, buf); err == nil {
		t.Error("oversized leaf count should be rejected")
	}
	buf[0] = 1 // internal
	binary.LittleEndian.PutUint16(buf[2:], 60000)
	if _, err := decodeNode(cfg, 1, buf); err == nil {
		t.Error("oversized internal count should be rejected")
	}
	// Short buffer.
	if _, err := decodeNode(cfg, 1, buf[:100]); err == nil {
		t.Error("short buffer should be rejected")
	}
	if _, err := openView(cfg, 1, buf[:100]); err == nil {
		t.Error("the view should reject a short buffer")
	}
}
