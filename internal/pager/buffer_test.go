package pager

import (
	"bytes"
	"math/rand"
	"os"
	"testing"
	"testing/quick"
)

func openRaw(path string) (*os.File, error) {
	return os.OpenFile(path, os.O_RDWR, 0o644)
}

func TestBufferPoolPassThrough(t *testing.T) {
	s := NewMemStore()
	bp := NewBufferPool(s, 0)
	id, _ := bp.Alloc()
	if err := bp.Put(id, fillPage(0x11)); err != nil {
		t.Fatalf("put: %v", err)
	}
	for i := 0; i < 3; i++ {
		b, err := bp.Get(id)
		if err != nil {
			t.Fatalf("get: %v", err)
		}
		if !bytes.Equal(b, fillPage(0x11)) {
			t.Fatal("bad contents")
		}
	}
	if bp.Hits() != 0 || bp.Misses() != 3 {
		t.Errorf("capacity-0 pool should never hit: hits=%d misses=%d", bp.Hits(), bp.Misses())
	}
}

func TestBufferPoolHitsAndEviction(t *testing.T) {
	s := NewMemStore()
	bp := NewBufferPool(s, 2)
	var ids []PageID
	for i := 0; i < 3; i++ {
		id, _ := bp.Alloc()
		if err := bp.Put(id, fillPage(byte(i))); err != nil {
			t.Fatalf("put: %v", err)
		}
		ids = append(ids, id)
	}
	// Pool holds pages 1,2 (page 0 was evicted, dirty → written back).
	if bp.Len() != 2 {
		t.Errorf("len = %d, want 2", bp.Len())
	}
	if bp.Evictions() != 1 || bp.WriteBacks() != 1 {
		t.Errorf("evictions=%d writeBacks=%d", bp.Evictions(), bp.WriteBacks())
	}
	// Page 0 must have reached the store despite eviction.
	buf := make([]byte, PageSize)
	if err := s.ReadPage(ids[0], buf); err != nil || !bytes.Equal(buf, fillPage(0)) {
		t.Errorf("evicted page lost: %v", err)
	}
	// Re-reading page 2 is a hit; page 0 is a miss.
	hits, misses := bp.Hits(), bp.Misses()
	if _, err := bp.Get(ids[2]); err != nil {
		t.Fatal(err)
	}
	if _, err := bp.Get(ids[0]); err != nil {
		t.Fatal(err)
	}
	if h, m := bp.Hits()-hits, bp.Misses()-misses; h != 1 || m != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", h, m)
	}
}

func TestBufferPoolLRUOrder(t *testing.T) {
	s := NewMemStore()
	bp := NewBufferPool(s, 2)
	a, _ := bp.Alloc()
	b, _ := bp.Alloc()
	c, _ := bp.Alloc()
	for _, id := range []PageID{a, b, c} {
		if err := s.WritePage(id, fillPage(byte(id))); err != nil {
			t.Fatal(err)
		}
	}
	bp.Get(a)
	bp.Get(b)
	bp.Get(a) // touch a: b becomes LRU
	bp.Get(c) // evicts b
	misses := bp.Misses()
	bp.Get(a)
	bp.Get(c)
	if m := bp.Misses() - misses; m != 0 {
		t.Errorf("a and c should still be cached, misses=%d", m)
	}
	bp.Get(b)
	if m := bp.Misses() - misses; m != 1 {
		t.Errorf("b should have been evicted, misses=%d", m)
	}
}

func TestBufferPoolFlushAndInvalidate(t *testing.T) {
	s := NewMemStore()
	bp := NewBufferPool(s, 8)
	id, _ := bp.Alloc()
	if err := bp.Put(id, fillPage(0x42)); err != nil {
		t.Fatal(err)
	}
	// Before flush, the store still has zeros (write was buffered).
	buf := make([]byte, PageSize)
	s.ReadPage(id, buf)
	if bytes.Equal(buf, fillPage(0x42)) {
		t.Error("write should have been buffered, not written through")
	}
	if err := bp.Flush(); err != nil {
		t.Fatal(err)
	}
	s.ReadPage(id, buf)
	if !bytes.Equal(buf, fillPage(0x42)) {
		t.Error("flush did not persist the page")
	}
	// Invalidate drops frames: next Get is a miss.
	misses := bp.Misses()
	if err := bp.Invalidate(); err != nil {
		t.Fatal(err)
	}
	if bp.Len() != 0 {
		t.Errorf("len after invalidate = %d", bp.Len())
	}
	bp.Get(id)
	if m := bp.Misses() - misses; m != 1 {
		t.Errorf("expected miss after invalidate, misses=%d", m)
	}
}

func TestBufferPoolFree(t *testing.T) {
	s := NewMemStore()
	bp := NewBufferPool(s, 4)
	id, _ := bp.Alloc()
	bp.Put(id, fillPage(1))
	if err := bp.Free(id); err != nil {
		t.Fatal(err)
	}
	if bp.Len() != 0 {
		t.Error("freed page should leave the pool")
	}
	id2, _ := bp.Alloc()
	if id2 != id {
		t.Errorf("freed page not reused: got %d want %d", id2, id)
	}
	b, err := bp.Get(id2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, make([]byte, PageSize)) {
		t.Error("reused page should read as zeros")
	}
}

func TestBufferPoolPutRejectsShort(t *testing.T) {
	bp := NewBufferPool(NewMemStore(), 1)
	id, _ := bp.Alloc()
	if err := bp.Put(id, []byte{1, 2, 3}); err == nil {
		t.Error("short put should fail")
	}
}

func TestBufferPoolCapacity(t *testing.T) {
	bp := NewBufferPool(NewMemStore(), 7)
	if bp.Capacity() != 7 {
		t.Errorf("capacity = %d", bp.Capacity())
	}
}

// Property: a BufferPool over a MemStore behaves exactly like a plain
// map under any interleaving of Get/Put/Flush/Invalidate, for any
// capacity.
func TestBufferPoolModelProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		store := NewMemStore()
		bp := NewBufferPool(store, r.Intn(5)) // includes capacity 0
		model := map[PageID]byte{}
		var ids []PageID
		for step := 0; step < 150; step++ {
			switch op := r.Intn(5); {
			case op == 0 || len(ids) == 0: // alloc
				id, err := bp.Alloc()
				if err != nil {
					return false
				}
				ids = append(ids, id)
				model[id] = 0
			case op == 1: // put
				id := ids[r.Intn(len(ids))]
				b := byte(r.Intn(256))
				if err := bp.Put(id, fillPage(b)); err != nil {
					return false
				}
				model[id] = b
			case op == 2: // get + compare
				id := ids[r.Intn(len(ids))]
				data, err := bp.Get(id)
				if err != nil {
					return false
				}
				if data[0] != model[id] || data[PageSize-1] != model[id] {
					return false
				}
			case op == 3: // flush
				if err := bp.Flush(); err != nil {
					return false
				}
			case op == 4: // invalidate (must not lose dirty data)
				if err := bp.Invalidate(); err != nil {
					return false
				}
			}
		}
		// After a final flush, the raw store agrees with the model.
		if err := bp.Flush(); err != nil {
			return false
		}
		buf := make([]byte, PageSize)
		for id, b := range model {
			if err := store.ReadPage(id, buf); err != nil {
				return false
			}
			if buf[0] != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// nonLending is a store that cannot lend its pages, so a pool over it must
// copy, and that counts the whole-page writes it takes.
type nonLending struct {
	Store
	writes int
}

func (s *nonLending) WritePage(id PageID, buf []byte) error {
	s.writes++
	return s.Store.WritePage(id, buf)
}

// Lend serves the same bytes and the same hit/miss accounting as GetHit,
// copying only where it must: a pass-through pool over a lending store
// hands out the store's own page, over any other store a buffer that no
// overlapping lease shares, and a buffered pool its frame.
func TestLend(t *testing.T) {
	stores := map[string]func() Store{
		"lending":     func() Store { return NewMemStore() },
		"non-lending": func() Store { return &nonLending{Store: NewMemStore()} },
	}
	for name, mk := range stores {
		for _, capacity := range []int{0, 4} {
			s := mk()
			bp := NewBufferPool(s, capacity)
			a, _ := bp.Alloc()
			b, _ := bp.Alloc()
			if err := bp.Put(a, fillPage(0xA1)); err != nil {
				t.Fatal(err)
			}
			if err := bp.Put(b, fillPage(0xB2)); err != nil {
				t.Fatal(err)
			}
			la, err := bp.Lend(a)
			if err != nil {
				t.Fatal(err)
			}
			lb, err := bp.Lend(b) // a nested lease, as a descent holds one per level
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(la.Page, fillPage(0xA1)) || !bytes.Equal(lb.Page, fillPage(0xB2)) {
				t.Errorf("%s/%d: lent pages hold the wrong bytes", name, capacity)
			}
			if hit := capacity > 0; la.Hit != hit || lb.Hit != hit {
				t.Errorf("%s/%d: hit flags %v %v, want %v", name, capacity, la.Hit, lb.Hit, hit)
			}
			if capacity == 0 {
				if bp.Hits() != 0 || bp.Misses() != 2 {
					t.Errorf("%s/0: hits=%d misses=%d, want 0 and 2", name, bp.Hits(), bp.Misses())
				}
				_, lends := s.(PageLender)
				if lent := la.frame == nil; lent != lends {
					t.Errorf("%s/0: page lent by the store: %v, want %v", name, lent, lends)
				}
			}
			la.Release()
			lb.Release()
			if _, err := bp.Lend(PageID(99)); err == nil {
				t.Errorf("%s/%d: lending a page that does not exist succeeded", name, capacity)
			}
		}
	}
	Lease{}.Release()
}

// Edit lends a page for modification where it lies: on every kind of pool
// the change is what later readers see and what reaches the store, a
// buffered frame is dirtied without an allocation or a hit/miss of its
// own, and a store that cannot lend sees exactly one whole-page WritePage.
func TestEdit(t *testing.T) {
	stores := map[string]func() Store{
		"lending":     func() Store { return NewMemStore() },
		"non-lending": func() Store { return &nonLending{Store: NewMemStore()} },
	}
	for name, mk := range stores {
		for _, capacity := range []int{0, 2} {
			s := mk()
			bp := NewBufferPool(s, capacity)
			a, _ := bp.Alloc()
			b, _ := bp.Alloc()
			c, _ := bp.Alloc()
			for i, id := range []PageID{a, b, c} {
				if err := bp.Put(id, fillPage(0xA1+byte(i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := bp.Flush(); err != nil {
				t.Fatal(err)
			}
			hits, misses, evictions := bp.Hits(), bp.Misses(), bp.Evictions()
			nl, _ := s.(*nonLending)
			var writes int
			if nl != nil {
				writes = nl.writes
			}

			// b and c are resident in the 2-frame pool, a is not.
			for _, id := range []PageID{b, a} {
				resident := capacity > 0 && id == b
				e, err := bp.Edit(id)
				if err != nil {
					t.Fatal(err)
				}
				e.Page[7] = 0x77
				if err := e.Commit(); err != nil {
					t.Fatal(err)
				}
				got, err := bp.Get(id)
				if err != nil || got[7] != 0x77 || got[8] == 0x77 {
					t.Fatalf("%s/%d: page %d after Edit: byte 7 = %#x (err %v)", name, capacity, id, got[7], err)
				}
				if h, m := bp.Hits()-hits, bp.Misses()-misses; resident && (m != 0 || h != 1) {
					t.Errorf("%s/%d: editing a resident frame counted hits=%d misses=%d before the Get's hit", name, capacity, h, m)
				}
			}
			if nl != nil && capacity == 0 {
				if got := nl.writes - writes; got != 2 {
					t.Errorf("%s/0: %d WritePage calls for two edits, want 2", name, got)
				}
			}
			if capacity > 0 {
				// Editing a brought in by evicting c; both edits are still
				// only in their frames until the flush.
				raw := make([]byte, PageSize)
				if err := s.ReadPage(b, raw); err != nil || raw[7] == 0x77 {
					t.Errorf("%s/%d: an edit reached the store before write-back (err %v)", name, capacity, err)
				}
				if got := bp.Evictions() - evictions; got != 1 {
					t.Errorf("%s/%d: %d evictions, want 1", name, capacity, got)
				}
			}
			if err := bp.Flush(); err != nil {
				t.Fatal(err)
			}
			for _, id := range []PageID{a, b} {
				raw := make([]byte, PageSize)
				if err := s.ReadPage(id, raw); err != nil || raw[7] != 0x77 {
					t.Errorf("%s/%d: edit of page %d did not reach the store (err %v)", name, capacity, id, err)
				}
			}
			if _, err := bp.Edit(PageID(99)); err == nil {
				t.Errorf("%s/%d: editing a page that does not exist succeeded", name, capacity)
			}
		}
	}

	// The steady state allocates nothing: the frame is edited, not replaced.
	bp := NewBufferPool(NewMemStore(), 4)
	id, _ := bp.Alloc()
	if err := bp.Put(id, fillPage(1)); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		e, err := bp.Edit(id)
		if err != nil {
			t.Fatal(err)
		}
		e.Page[0]++
		if err := e.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := bp.Put(id, e.Page); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Edit + Put of a resident frame: %.0f allocs, want 0", allocs)
	}
}

// A held Lease or Edit pins its frame: misses that evict the page still
// evict it in LRU order, writing an edited frame back, but read their pages
// elsewhere, so the holder keeps page A's bytes until it lets go.
func TestLeasePinsFrame(t *testing.T) {
	for _, kind := range []string{"lease", "edit"} {
		s := NewMemStore()
		bp := NewBufferPool(s, 2)
		var ids []PageID
		for i := 0; i < 4; i++ {
			id, _ := s.Alloc()
			if err := s.WritePage(id, fillPage(0xA0+byte(i))); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		a := ids[0]
		want := fillPage(0xA0)
		var page []byte
		var done func() error
		if kind == "lease" {
			l, err := bp.Lend(a)
			if err != nil {
				t.Fatal(err)
			}
			page, done = l.Page, func() error { l.Release(); return nil }
		} else {
			e, err := bp.Edit(a)
			if err != nil {
				t.Fatal(err)
			}
			e.Page[7] = 0x77
			want[7] = 0x77
			page, done = e.Page, e.Commit
		}
		pinned := func() int { return bp.SegmentStats()[0].Pinned }
		if pinned() != 1 {
			t.Fatalf("%s: %d frames pinned while resident A is held, want 1", kind, pinned())
		}

		// B fills the pool; C's miss evicts A, which is held, so C gets a
		// fresh frame; D, B and C then each evict the LRU frame and reuse it.
		for i, id := range []PageID{ids[1], ids[2], ids[3], ids[1], ids[2]} {
			l, err := bp.Lend(id)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(l.Page, fillPage(0xA0+byte(id))) {
				t.Fatalf("%s: lend %d of page %d: wrong bytes", kind, i, id)
			}
			l.Release()
			if !bytes.Equal(page, want) {
				t.Fatalf("%s: after lend %d (page %d) the held page no longer holds A's bytes", kind, i, id)
			}
		}
		wantWB := int64(0)
		if kind == "edit" {
			wantWB = 1 // A, dirty, written back when evicted
		}
		if bp.Evictions() != 4 || bp.WriteBacks() != wantWB || bp.Misses() != 6 || bp.Hits() != 0 {
			t.Errorf("%s: evictions/write-backs/misses/hits %d/%d/%d/%d, want 4/%d/6/0",
				kind, bp.Evictions(), bp.WriteBacks(), bp.Misses(), bp.Hits(), wantWB)
		}
		if pinned() != 0 {
			t.Errorf("%s: %d resident frames pinned once A is evicted, want 0", kind, pinned())
		}
		raw := make([]byte, PageSize)
		if err := s.ReadPage(a, raw); err != nil || !bytes.Equal(raw, want) {
			t.Errorf("%s: store holds the wrong bytes for A after its eviction (err %v)", kind, err)
		}
		if err := done(); err != nil {
			t.Fatal(err)
		}
		if pinned() != 0 {
			t.Errorf("%s: %d frames pinned after the hold ended, want 0", kind, pinned())
		}
	}
}

// Once the pool is full, a miss reads into the frame it evicts: Lend and
// Release of a page that is not resident allocate nothing, and neither
// does an Edit whose eviction writes a dirty frame back.
func TestMissAllocatesNothing(t *testing.T) {
	for _, capacity := range []int{8, 64} {
		s := NewMemStore()
		bp := NewBufferPool(s, capacity)
		var ids []PageID
		for i := 0; i < 2*capacity; i++ {
			id, _ := s.Alloc()
			ids = append(ids, id)
		}
		// A cyclic scan of twice the capacity misses on every page.
		next := 0
		lend := func() {
			l, err := bp.Lend(ids[next%len(ids)])
			if err != nil {
				t.Fatal(err)
			}
			l.Release()
			next++
		}
		edit := func() {
			e, err := bp.Edit(ids[next%len(ids)])
			if err != nil {
				t.Fatal(err)
			}
			e.Page[0]++
			if err := e.Commit(); err != nil {
				t.Fatal(err)
			}
			next++
		}
		for range ids {
			lend()
		}
		if bp.Len() != capacity {
			t.Fatalf("capacity %d: %d frames after the warm-up, want a full pool", capacity, bp.Len())
		}
		for name, op := range map[string]func(){"Lend+Release": lend, "Edit+Commit": edit} {
			hits, misses := bp.Hits(), bp.Misses()
			if allocs := testing.AllocsPerRun(200, op); allocs != 0 {
				t.Errorf("capacity %d: %s of a page that is not resident: %.0f allocs, want 0", capacity, name, allocs)
			}
			if h, m := bp.Hits()-hits, bp.Misses()-misses; h != 0 || m != 201 {
				t.Errorf("capacity %d: %s: hits=%d misses=%d, want 0 and 201", capacity, name, h, m)
			}
		}
	}
}
