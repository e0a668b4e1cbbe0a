package pager

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// BufferPool caches pages of an underlying Store with LRU replacement and
// write-back of dirty frames. It tracks hits and misses so the ablation
// experiments can compare "naive + server-side LRU buffer" against the
// dynamic query algorithms.
//
// The pool is safe for concurrent use. Internally the capacity is split
// across independently locked LRU segments keyed by PageID, so parallel
// R-tree descents contend only when they touch pages in the same segment.
// Small pools (fewer than 2×segmentMinFrames frames) collapse to a single
// segment and behave exactly like a global LRU, which the deterministic
// eviction tests and the paper's tiny-buffer ablations rely on.
//
// A miss evicts first and reads second: the segment drops its LRU tail
// (writing it back if dirty), and when no Lease or Edit holds that frame
// the page is read straight into the victim's buffer, outside the segment
// lock, so a steady-state miss allocates nothing. A held victim is evicted
// all the same — eviction order is plain LRU — but keeps its buffer for its
// holder, and the new page gets a fresh frame. A frame being read holds its
// slot, so a segment never has more than its capacity of frames resident.
//
// Aliasing rule: a buffered frame is ONE buffer for its whole residency.
// Lend hands that buffer out, Put copies into it and Edit lends it for
// modification in place — frames are not copy-on-write. A lent slice is
// therefore only stable while nothing writes that page, and a write must
// not run beside a reader of the same pool. The index layer guarantees
// both: every lease lives inside rtree.Tree's lock, which writers hold
// exclusively. Lend and Edit pin the frame until Release or Commit, which
// is what keeps a miss from reading another page into it; Get and GetHit
// return a copy and keep no pin.
//
// A BufferPool with capacity 0 is a pass-through (every Get is a miss):
// this models the paper's experimental setting, where the server keeps no
// per-session buffer.
type BufferPool struct {
	store    Store
	lender   PageLender // store, when it can lend pages; else nil
	capacity int
	segs     []*poolSegment

	// Accounting is atomic so a metrics endpoint can read live values
	// while queries are in flight.
	hits, misses, evictions, writeBacks atomic.Int64
	size                                atomic.Int64 // buffered frame count
}

// poolSegment is one independently locked slice of the pool: its own
// frame map, LRU ring, and capacity share. Per-segment hit/miss counters,
// kept under mu, feed the contention observability gauges.
type poolSegment struct {
	mu       sync.Mutex
	slotFree sync.Cond // on mu: a read in flight gave its slot a frame or gave it up
	capacity int
	frames   map[PageID]*frame
	lru      frame // ring sentinel: lru.next is the most recently used frame
	reading  int   // misses reading a page outside mu; each holds a slot

	hits, misses int64
}

// frame is one page buffer and its place in its segment's LRU ring.
// Outside the segment lock only pins changes (Release and Commit drop it),
// and a miss fills the data of the frame it claimed, which no other
// goroutine can reach yet. A frame of no segment is the scratch page of a
// pass-through lease.
type frame struct {
	id         PageID
	data       []byte
	dirty      bool
	pins       atomic.Int32
	prev, next *frame
	seg        *poolSegment
}

// release ends one hold on f. A pool frame is unpinned, and its last hold
// lets a miss reuse its buffer once f is evicted; a scratch frame goes
// back to leaseScratch.
func (f *frame) release() {
	if f.seg == nil {
		leaseScratch.Put(f)
	} else {
		f.pins.Add(-1)
	}
}

// Segment sizing: a pool only splits once each segment would hold a
// useful number of frames, and never beyond maxSegments locks.
const (
	segmentMinFrames = 8
	maxSegments      = 16
)

func numSegments(capacity int) int {
	if capacity <= 0 {
		return 0
	}
	n := capacity / segmentMinFrames
	if n < 1 {
		n = 1
	}
	if n > maxSegments {
		n = maxSegments
	}
	return n
}

// NewBufferPool wraps store with an LRU buffer holding up to capacity
// pages.
func NewBufferPool(store Store, capacity int) *BufferPool {
	bp := &BufferPool{store: store, capacity: capacity}
	bp.lender, _ = store.(PageLender)
	n := numSegments(capacity)
	bp.segs = make([]*poolSegment, n)
	for i := range bp.segs {
		segCap := capacity / n
		if i < capacity%n {
			segCap++
		}
		seg := &poolSegment{capacity: segCap, frames: make(map[PageID]*frame)}
		seg.slotFree.L = &seg.mu
		seg.lru.prev, seg.lru.next = &seg.lru, &seg.lru
		bp.segs[i] = seg
	}
	return bp
}

// segment maps a page to its owning segment. Sequential page IDs spread
// round-robin, which keeps hot sibling nodes on different locks.
func (bp *BufferPool) segment(id PageID) *poolSegment {
	return bp.segs[int(uint32(id))%len(bp.segs)]
}

// pushFront links f in as seg's most recently used frame.
func (seg *poolSegment) pushFront(f *frame) {
	f.prev, f.next = &seg.lru, seg.lru.next
	f.next.prev = f
	seg.lru.next = f
}

// unlink takes f out of seg's ring.
func (seg *poolSegment) unlink(f *frame) {
	f.prev.next, f.next.prev = f.next, f.prev
	f.prev, f.next = nil, nil
}

// touch makes resident f the most recently used frame.
func (seg *poolSegment) touch(f *frame) {
	if seg.lru.next != f {
		seg.unlink(f)
		seg.pushFront(f)
	}
}

// Get returns a copy of a page's contents.
func (bp *BufferPool) Get(id PageID) ([]byte, error) {
	buf, _, err := bp.GetHit(id)
	return buf, err
}

// GetHit is Get plus a flag reporting whether the page was served from
// the buffer. The flag is per call; the pool-global Hits/Misses totals do
// not give it under concurrency. The copy is the caller's own: a frame
// nothing pins may be read over by the next miss.
func (bp *BufferPool) GetHit(id PageID) ([]byte, bool, error) {
	if bp.capacity == 0 {
		bp.misses.Add(1)
		buf := make([]byte, PageSize)
		if err := bp.store.ReadPage(id, buf); err != nil {
			return nil, false, err
		}
		return buf, false, nil
	}
	f, hit, err := bp.fetch(id, false)
	if err != nil {
		return nil, false, err
	}
	buf := append([]byte(nil), f.data...)
	f.release()
	return buf, hit, nil
}

// PageLender is implemented by stores that can hand out a page's bytes
// without copying them. The lent slice IS the store's copy of the page —
// writing to it writes the page, which only Edit does — and it stays valid
// until that page is freed or the store closed.
type PageLender interface {
	LendPage(id PageID) ([]byte, error)
}

// Lease is a page lent by Lend: Page is read-only and valid until Release
// or the next write through the pool, whichever comes first.
type Lease struct {
	Page  []byte
	Hit   bool
	frame *frame // pinned pool frame or scratch frame; nil when the store lent Page
}

// Release ends the lease. The zero Lease may be released.
func (l Lease) Release() {
	if l.frame != nil {
		l.frame.release()
	}
}

// leaseScratch recycles the scratch frames of pass-through leases over
// stores that cannot lend; nested leases (a descent holds one per level)
// each take their own.
var leaseScratch = sync.Pool{New: func() any { return &frame{data: make([]byte, PageSize)} }}

// Lend is GetHit without the copy: a buffered pool lends its frame, pinned
// until Release, a pass-through pool lends the store's own page when the
// store is a PageLender and otherwise reads into a recycled buffer. The
// caller must exclude writers of the page for the life of the lease — the
// index layer holds its tree lock — and must not retain Page past Release.
func (bp *BufferPool) Lend(id PageID) (Lease, error) {
	if bp.capacity > 0 {
		f, hit, err := bp.fetch(id, false)
		if err != nil {
			return Lease{}, err
		}
		return Lease{Page: f.data, Hit: hit, frame: f}, nil
	}
	bp.misses.Add(1)
	if bp.lender != nil {
		page, err := bp.lender.LendPage(id)
		return Lease{Page: page}, err
	}
	scratch := leaseScratch.Get().(*frame)
	if err := bp.store.ReadPage(id, scratch.data); err != nil {
		leaseScratch.Put(scratch)
		return Lease{}, err
	}
	return Lease{Page: scratch.data, frame: scratch}, nil
}

// Edit is a page lent for modification in place by BufferPool.Edit. The
// caller changes Page, then calls Commit; an Edit that is dropped without
// Commit may or may not have taken effect.
type Edit struct {
	Page  []byte
	frame *frame // as in Lease
	store Store  // set iff frame is a scratch copy Commit must write out
	id    PageID
}

// Commit publishes the modified page and ends the lease.
func (e Edit) Commit() error {
	if e.frame == nil {
		return nil // the store lent Page
	}
	var err error
	if e.store != nil {
		err = e.store.WritePage(e.id, e.Page)
	}
	e.frame.release()
	return err
}

// Edit lends a page for modification in place, the mutable counterpart of
// Lend: a buffered pool hands out its own frame, pinned until Commit, and
// marks it dirty (the write half of a Get+Put pair, so a resident page
// counts neither hit nor miss), a pass-through pool over a PageLender hands
// out the store's page, and over any other store it reads the page into a
// recycled buffer that Commit writes back whole — so a FileStore still sees
// one WritePage per changed page and computes its checksum trailer there.
// The caller must exclude every other user of the page until Commit (see
// the aliasing rule on BufferPool) and call Edit only for a page it will
// change.
func (bp *BufferPool) Edit(id PageID) (Edit, error) {
	if bp.capacity > 0 {
		f, _, err := bp.fetch(id, true)
		if err != nil {
			return Edit{}, err
		}
		return Edit{Page: f.data, frame: f}, nil
	}
	if bp.lender != nil {
		page, err := bp.lender.LendPage(id)
		return Edit{Page: page}, err
	}
	bp.misses.Add(1)
	scratch := leaseScratch.Get().(*frame)
	if err := bp.store.ReadPage(id, scratch.data); err != nil {
		leaseScratch.Put(scratch)
		return Edit{}, err
	}
	return Edit{Page: scratch.data, frame: scratch, store: bp.store, id: id}, nil
}

// fetch returns page id's frame, pinned and most recently used, reading the
// page in on a miss; edit marks the frame dirty and counts a resident page
// as neither hit nor miss.
func (bp *BufferPool) fetch(id PageID, edit bool) (*frame, bool, error) {
	seg := bp.segment(id)
	seg.mu.Lock()
	if f := seg.waitSlotLocked(id); f != nil {
		seg.holdLocked(f, edit)
		if !edit {
			seg.hits++
			bp.hits.Add(1)
		}
		seg.mu.Unlock()
		return f, true, nil
	}
	seg.misses++
	bp.misses.Add(1)
	f, err := bp.claimLocked(seg)
	if err != nil {
		seg.mu.Unlock()
		return nil, false, err
	}
	seg.reading++
	seg.mu.Unlock()

	err = bp.store.ReadPage(id, f.data)

	seg.mu.Lock()
	defer seg.mu.Unlock()
	seg.reading--
	seg.slotFree.Broadcast()
	if err != nil {
		return nil, false, err
	}
	if g, ok := seg.frames[id]; ok {
		// Another goroutine cached the page while we read it; prefer the
		// pooled copy (it may hold a buffered write).
		f = g
	} else {
		bp.installLocked(seg, f, id)
	}
	seg.holdLocked(f, edit)
	return f, false, nil
}

// holdLocked pins resident f for a Lease (edit false) or an Edit, which
// also dirties it, and makes it seg's most recently used frame. Callers
// hold seg.mu.
func (seg *poolSegment) holdLocked(f *frame, edit bool) {
	f.pins.Add(1)
	f.dirty = f.dirty || edit
	seg.touch(f)
}

// waitSlotLocked returns page id's resident frame, or nil once seg has a
// slot a miss can claim: a free one or a frame to evict. Only when every
// slot is held by a read in flight does it wait, so a segment never holds
// more than its capacity. Callers hold seg.mu.
func (seg *poolSegment) waitSlotLocked(id PageID) *frame {
	for {
		if f, ok := seg.frames[id]; ok {
			return f
		}
		if len(seg.frames) > 0 || seg.reading < seg.capacity {
			return nil
		}
		seg.slotFree.Wait()
	}
}

// claimLocked takes a slot in seg for a page about to be read or written
// and returns the frame to fill, not yet in the ring. A full segment first
// evicts its LRU tail, writing it back if dirty, and hands over the victim
// itself when no Lease or Edit pins it; otherwise the frame is new.
// Callers hold seg.mu and have seen waitSlotLocked return.
func (bp *BufferPool) claimLocked(seg *poolSegment) (*frame, error) {
	if len(seg.frames)+seg.reading >= seg.capacity {
		victim := seg.lru.prev
		if victim.dirty {
			bp.writeBacks.Add(1)
			if err := bp.store.WritePage(victim.id, victim.data); err != nil {
				return nil, err
			}
		}
		bp.dropLocked(seg, victim)
		bp.evictions.Add(1)
		if victim.pins.Load() == 0 {
			victim.dirty = false
			return victim, nil
		}
	}
	return &frame{data: make([]byte, PageSize), seg: seg}, nil
}

// installLocked makes f page id's frame, the most recently used in seg.
// Callers hold seg.mu.
func (bp *BufferPool) installLocked(seg *poolSegment, f *frame, id PageID) {
	f.id = id
	seg.frames[id] = f
	seg.pushFront(f)
	bp.size.Add(1)
}

// dropLocked takes resident f out of seg. Callers hold seg.mu.
func (bp *BufferPool) dropLocked(seg *poolSegment, f *frame) {
	seg.unlink(f)
	delete(seg.frames, f.id)
	bp.size.Add(-1)
}

// Put replaces the contents of a page. The write is buffered if the pool
// has capacity, otherwise it goes straight to the store. A resident frame
// is overwritten where it lies (see the aliasing rule on BufferPool).
func (bp *BufferPool) Put(id PageID, data []byte) error {
	if len(data) != PageSize {
		return ErrBadPageData
	}
	if bp.capacity == 0 {
		return bp.store.WritePage(id, data)
	}
	seg := bp.segment(id)
	seg.mu.Lock()
	defer seg.mu.Unlock()
	f := seg.waitSlotLocked(id)
	if f == nil {
		var err error
		if f, err = bp.claimLocked(seg); err != nil {
			return err
		}
		bp.installLocked(seg, f, id)
	}
	copy(f.data, data)
	f.dirty = true
	seg.touch(f)
	return nil
}

// Alloc allocates a fresh page in the underlying store.
func (bp *BufferPool) Alloc() (PageID, error) { return bp.store.Alloc() }

// Free drops any buffered frame for the page and releases it in the
// store.
func (bp *BufferPool) Free(id PageID) error {
	if bp.capacity > 0 {
		seg := bp.segment(id)
		seg.mu.Lock()
		if f, ok := seg.frames[id]; ok {
			bp.dropLocked(seg, f)
		}
		seg.mu.Unlock()
	}
	return bp.store.Free(id)
}

// Flush writes all dirty frames back to the store (frames stay cached).
// Every dirty frame is attempted even when some writes fail; the
// failures are aggregated with errors.Join, and a frame's dirty bit is
// cleared only after its own write succeeds, so a partial flush never
// strands unpersisted data behind a clean-looking frame.
func (bp *BufferPool) Flush() error {
	var errs []error
	for _, seg := range bp.segs {
		seg.mu.Lock()
		for f := seg.lru.next; f != &seg.lru; f = f.next {
			if !f.dirty {
				continue
			}
			bp.writeBacks.Add(1)
			if err := bp.store.WritePage(f.id, f.data); err != nil {
				errs = append(errs, fmt.Errorf("page %d: %w", f.id, err))
				continue
			}
			f.dirty = false
		}
		seg.mu.Unlock()
	}
	return errors.Join(errs...)
}

// Invalidate flushes and then drops every cached frame, so subsequent
// Gets hit the store again. If any write-back fails the frames are kept
// (dirty ones still dirty) and the error is returned, so no unpersisted
// data is dropped. The experiment harness calls this between queries
// when modelling a bufferless server.
func (bp *BufferPool) Invalidate() error {
	if err := bp.Flush(); err != nil {
		return err
	}
	for _, seg := range bp.segs {
		seg.mu.Lock()
		for f := seg.lru.next; f != &seg.lru; f = seg.lru.next {
			bp.dropLocked(seg, f)
		}
		seg.mu.Unlock()
	}
	return nil
}

// Hits reports Gets served from the buffer.
func (bp *BufferPool) Hits() int64 { return bp.hits.Load() }

// Misses reports Gets that went to the store.
func (bp *BufferPool) Misses() int64 { return bp.misses.Load() }

// Evictions reports frames displaced by LRU replacement.
func (bp *BufferPool) Evictions() int64 { return bp.evictions.Load() }

// WriteBacks reports dirty frames written to the store.
func (bp *BufferPool) WriteBacks() int64 { return bp.writeBacks.Load() }

// Len reports the number of currently buffered frames. Safe to call
// concurrently with pool operations.
func (bp *BufferPool) Len() int { return int(bp.size.Load()) }

// Capacity reports the pool's frame capacity.
func (bp *BufferPool) Capacity() int { return bp.capacity }

// SegmentStats is a point-in-time view of one pool segment, for the
// per-segment hit-ratio gauges.
type SegmentStats struct {
	Hits     int64
	Misses   int64
	Len      int
	Capacity int
	Pinned   int // resident frames a Lease or Edit holds: those a miss cannot reuse
}

// SegmentStats snapshots every segment's counters in index order.
func (bp *BufferPool) SegmentStats() []SegmentStats {
	out := make([]SegmentStats, len(bp.segs))
	for i, seg := range bp.segs {
		seg.mu.Lock()
		out[i] = SegmentStats{
			Hits:     seg.hits,
			Misses:   seg.misses,
			Len:      len(seg.frames),
			Capacity: seg.capacity,
		}
		for f := seg.lru.next; f != &seg.lru; f = f.next {
			if f.pins.Load() != 0 {
				out[i].Pinned++
			}
		}
		seg.mu.Unlock()
	}
	return out
}
