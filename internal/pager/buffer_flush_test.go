package pager

import (
	"errors"
	"sync"
	"testing"
)

// patternPage makes a page-sized buffer with a recognizable byte pattern.
func patternPage(b byte) []byte {
	buf := make([]byte, PageSize)
	for i := range buf {
		buf[i] = b
	}
	return buf
}

// TestBufferPoolGetHit checks the per-call hit flag that the index layer
// uses for cost accounting (pool-global counter deltas are not usable
// under concurrency).
func TestBufferPoolGetHit(t *testing.T) {
	ms := NewMemStore()
	bp := NewBufferPool(ms, 4)
	id, err := bp.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if _, hit, err := bp.GetHit(id); err != nil || hit {
		t.Fatalf("first Get: hit=%v err=%v, want miss", hit, err)
	}
	if _, hit, err := bp.GetHit(id); err != nil || !hit {
		t.Fatalf("second Get: hit=%v err=%v, want hit", hit, err)
	}

	// Pass-through pools never report hits.
	pass := NewBufferPool(ms, 0)
	if _, hit, err := pass.GetHit(id); err != nil || hit {
		t.Fatalf("pass-through Get: hit=%v err=%v, want miss", hit, err)
	}
}

// TestBufferPoolSegmentation checks the capacity-to-segment mapping:
// small pools stay single-segment (global LRU semantics), larger pools
// split, capacity is conserved, and per-segment stats add up.
func TestBufferPoolSegmentation(t *testing.T) {
	ms := NewMemStore()
	cases := []struct{ capacity, wantSegs int }{
		{0, 0}, {1, 1}, {7, 1}, {8, 1}, {16, 2}, {64, 8}, {128, 16}, {1024, 16},
	}
	for _, c := range cases {
		bp := NewBufferPool(ms, c.capacity)
		if got := len(bp.SegmentStats()); got != c.wantSegs {
			t.Errorf("capacity %d: %d segments, want %d", c.capacity, got, c.wantSegs)
		}
		total := 0
		for _, s := range bp.SegmentStats() {
			total += s.Capacity
		}
		if total != c.capacity {
			t.Errorf("capacity %d: segment capacities sum to %d", c.capacity, total)
		}
	}
}

// TestBufferPoolConcurrentGets hammers one pool from many goroutines and
// checks every returned page's contents. Run under -race this is the
// lock-sharding safety test.
func TestBufferPoolConcurrentGets(t *testing.T) {
	ms := NewMemStore()
	const pages = 64
	for i := 0; i < pages; i++ {
		if _, err := ms.Alloc(); err != nil {
			t.Fatal(err)
		}
		if err := ms.WritePage(PageID(i), patternPage(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Capacity below the working set forces concurrent eviction too.
	bp := NewBufferPool(ms, 32)

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				id := PageID((i*7 + g*13) % pages)
				buf, err := bp.Get(id)
				if err != nil {
					errs <- err
					return
				}
				if buf[0] != byte(id) || buf[PageSize-1] != byte(id) {
					errs <- errors.New("page contents corrupted under concurrent access")
					return
				}
			}
		}(g)
	}
	// Concurrent stats readers must not race with the LRU churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			bp.SegmentStats()
			_ = bp.Len()
			_ = bp.Hits()
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if bp.Hits()+bp.Misses() != 8*2000 {
		t.Fatalf("hits+misses = %d, want %d", bp.Hits()+bp.Misses(), 8*2000)
	}
}

// TestBufferPoolConcurrentLeases holds two leases at a time per goroutine
// over a pool far smaller than the pages in flight, so misses evict held
// frames, reuse released ones and wait for slots that reads in flight
// hold. Every lease must keep its page's bytes until released, and no
// frame may stay pinned. Run under -race this is the pinning safety test.
func TestBufferPoolConcurrentLeases(t *testing.T) {
	ms := NewMemStore()
	const pages = 16
	for i := 0; i < pages; i++ {
		if _, err := ms.Alloc(); err != nil {
			t.Fatal(err)
		}
		if err := ms.WritePage(PageID(i), patternPage(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	bp := NewBufferPool(ms, 3)

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	intact := func(l Lease, id PageID) bool {
		return l.Page[0] == byte(id) && l.Page[PageSize/2] == byte(id) && l.Page[PageSize-1] == byte(id)
	}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				outer := PageID((i*5 + g*3) % pages)
				inner := PageID((i*11 + g*7 + 1) % pages)
				lo, err := bp.Lend(outer)
				if err != nil {
					errs <- err
					return
				}
				li, err := bp.Lend(inner)
				if err != nil {
					lo.Release()
					errs <- err
					return
				}
				ok := intact(li, inner) && intact(lo, outer)
				li.Release()
				ok = ok && intact(lo, outer)
				lo.Release()
				if !ok {
					errs <- errors.New("a held lease lost its page's bytes")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := bp.SegmentStats()[0]; st.Pinned != 0 || st.Len > st.Capacity {
		t.Fatalf("after every lease ended: %d frames pinned, %d resident of %d", st.Pinned, st.Len, st.Capacity)
	}
	if bp.Hits()+bp.Misses() != 8*1000*2 {
		t.Fatalf("hits+misses = %d, want %d", bp.Hits()+bp.Misses(), 8*1000*2)
	}
}
