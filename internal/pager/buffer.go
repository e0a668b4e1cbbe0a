package pager

import (
	"container/list"
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
// Concurrent Gets of distinct pages never block each other beyond their
// segment lock.
//
// Aliasing rule: a buffered frame is ONE buffer for its whole residency.
// Get, GetHit and Lend hand that buffer out, Put copies into it and Edit
// lends it for modification in place — frames are not copy-on-write. A
// slice obtained from the pool is therefore only stable while nothing
// writes that page, and a write must not run beside a reader of the same
// pool. The index layer guarantees both: every lease lives inside
// rtree.Tree's lock, which writers hold exclusively.
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
// frame map, LRU list, and capacity share. Per-segment hit/miss counters
// feed the contention observability gauges.
type poolSegment struct {
	mu       sync.Mutex
	capacity int
	frames   map[PageID]*list.Element
	lru      *list.List // front = most recently used

	hits, misses atomic.Int64
}

type frame struct {
	id    PageID
	data  []byte
	dirty bool
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
		bp.segs[i] = &poolSegment{
			capacity: segCap,
			frames:   make(map[PageID]*list.Element),
			lru:      list.New(),
		}
	}
	return bp
}

// segment maps a page to its owning segment. Sequential page IDs spread
// round-robin, which keeps hot sibling nodes on different locks.
func (bp *BufferPool) segment(id PageID) *poolSegment {
	return bp.segs[int(uint32(id))%len(bp.segs)]
}

// Get returns the contents of a page. The returned slice must be treated
// as read-only; on a buffered pool it is the frame itself, so it holds the
// page's contents only until the next write of that page (Put or Edit).
func (bp *BufferPool) Get(id PageID) ([]byte, error) {
	buf, _, err := bp.GetHit(id)
	return buf, err
}

// GetHit is Get plus a flag reporting whether the page was served from
// the buffer. The index layer uses the flag for its per-query cost
// counters; the pool-global Hits/Misses totals are not usable for that
// under concurrency.
func (bp *BufferPool) GetHit(id PageID) ([]byte, bool, error) {
	if bp.capacity == 0 {
		bp.misses.Add(1)
		buf := make([]byte, PageSize)
		if err := bp.store.ReadPage(id, buf); err != nil {
			return nil, false, err
		}
		return buf, false, nil
	}
	return bp.getBuffered(id)
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
	Page    []byte
	Hit     bool
	scratch *[PageSize]byte
}

// Release ends the lease. The zero Lease may be released.
func (l Lease) Release() {
	if l.scratch != nil {
		leaseScratch.Put(l.scratch)
	}
}

// leaseScratch recycles the read buffers of pass-through leases over
// stores that cannot lend; nested leases (a descent holds one per level)
// each take their own.
var leaseScratch = sync.Pool{New: func() any { return new([PageSize]byte) }}

// Lend is GetHit without the copy a pass-through pool makes: a buffered
// pool lends its frame, a pass-through pool lends the store's own page
// when the store is a PageLender and otherwise reads into a recycled
// buffer. The caller must exclude writers of the page for the life of the
// lease — the index layer holds its tree lock — and must not retain Page
// past Release.
func (bp *BufferPool) Lend(id PageID) (Lease, error) {
	if bp.capacity > 0 {
		page, hit, err := bp.getBuffered(id)
		return Lease{Page: page, Hit: hit}, err
	}
	bp.misses.Add(1)
	if bp.lender != nil {
		page, err := bp.lender.LendPage(id)
		return Lease{Page: page}, err
	}
	scratch := leaseScratch.Get().(*[PageSize]byte)
	if err := bp.store.ReadPage(id, scratch[:]); err != nil {
		leaseScratch.Put(scratch)
		return Lease{}, err
	}
	return Lease{Page: scratch[:], scratch: scratch}, nil
}

// Edit is a page lent for modification in place by BufferPool.Edit. The
// caller changes Page, then calls Commit; an Edit that is dropped without
// Commit may or may not have taken effect.
type Edit struct {
	Page    []byte
	store   Store // set iff Page is a scratch copy Commit must write out
	id      PageID
	scratch *[PageSize]byte
}

// Commit publishes the modified page and ends the lease.
func (e Edit) Commit() error {
	if e.scratch == nil {
		return nil
	}
	err := e.store.WritePage(e.id, e.scratch[:])
	leaseScratch.Put(e.scratch)
	return err
}

// Edit lends a page for modification in place, the mutable counterpart of
// Lend: a buffered pool hands out its own frame and marks it dirty (the
// write half of a Get+Put pair, so a resident page counts neither hit nor
// miss), a pass-through pool over a PageLender hands out the store's page,
// and over any other store it reads the page into a recycled buffer that
// Commit writes back whole — so a FileStore still sees one WritePage per
// changed page and computes its checksum trailer there. The caller must
// exclude every other user of the page until Commit (see the aliasing rule
// on BufferPool) and call Edit only for a page it will change.
func (bp *BufferPool) Edit(id PageID) (Edit, error) {
	if bp.capacity > 0 {
		page, err := bp.editBuffered(id)
		return Edit{Page: page}, err
	}
	if bp.lender != nil {
		page, err := bp.lender.LendPage(id)
		return Edit{Page: page}, err
	}
	bp.misses.Add(1)
	scratch := leaseScratch.Get().(*[PageSize]byte)
	if err := bp.store.ReadPage(id, scratch[:]); err != nil {
		leaseScratch.Put(scratch)
		return Edit{}, err
	}
	return Edit{Page: scratch[:], store: bp.store, id: id, scratch: scratch}, nil
}

// editBuffered returns page id's frame, marked dirty and most recently
// used, reading the page in first if it is not resident.
func (bp *BufferPool) editBuffered(id PageID) ([]byte, error) {
	seg := bp.segment(id)
	seg.mu.Lock()
	defer seg.mu.Unlock()
	if el, ok := seg.frames[id]; ok {
		f := el.Value.(*frame)
		f.dirty = true
		seg.lru.MoveToFront(el)
		return f.data, nil
	}
	bp.misses.Add(1)
	seg.misses.Add(1)
	buf := make([]byte, PageSize)
	if err := bp.store.ReadPage(id, buf); err != nil {
		return nil, err
	}
	if err := bp.insertLocked(seg, &frame{id: id, data: buf, dirty: true}); err != nil {
		return nil, err
	}
	return buf, nil
}

func (bp *BufferPool) getBuffered(id PageID) ([]byte, bool, error) {
	seg := bp.segment(id)
	seg.mu.Lock()
	if el, ok := seg.frames[id]; ok {
		seg.lru.MoveToFront(el)
		data := el.Value.(*frame).data
		seg.mu.Unlock()
		bp.hits.Add(1)
		seg.hits.Add(1)
		return data, true, nil
	}
	seg.mu.Unlock()
	bp.misses.Add(1)
	seg.misses.Add(1)
	buf := make([]byte, PageSize)
	if err := bp.store.ReadPage(id, buf); err != nil {
		return nil, false, err
	}
	seg.mu.Lock()
	defer seg.mu.Unlock()
	if el, ok := seg.frames[id]; ok {
		// Another goroutine cached the page while we read it; prefer the
		// pooled copy (it may hold a buffered write).
		seg.lru.MoveToFront(el)
		return el.Value.(*frame).data, false, nil
	}
	if err := bp.insertLocked(seg, &frame{id: id, data: buf}); err != nil {
		return nil, false, err
	}
	return buf, false, nil
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
	if el, ok := seg.frames[id]; ok {
		f := el.Value.(*frame)
		copy(f.data, data)
		f.dirty = true
		seg.lru.MoveToFront(el)
		return nil
	}
	buf := make([]byte, PageSize)
	copy(buf, data)
	return bp.insertLocked(seg, &frame{id: id, data: buf, dirty: true})
}

// insertLocked adds a frame to seg, evicting from seg's own LRU tail as
// needed. Callers hold seg.mu.
func (bp *BufferPool) insertLocked(seg *poolSegment, f *frame) error {
	for seg.lru.Len() >= seg.capacity {
		if err := bp.evictOldestLocked(seg); err != nil {
			return err
		}
	}
	seg.frames[f.id] = seg.lru.PushFront(f)
	bp.size.Add(1)
	return nil
}

func (bp *BufferPool) evictOldestLocked(seg *poolSegment) error {
	el := seg.lru.Back()
	if el == nil {
		return fmt.Errorf("pager: buffer pool eviction with no frames")
	}
	f := el.Value.(*frame)
	if f.dirty {
		bp.writeBacks.Add(1)
		if err := bp.store.WritePage(f.id, f.data); err != nil {
			return err
		}
	}
	seg.lru.Remove(el)
	delete(seg.frames, f.id)
	bp.size.Add(-1)
	bp.evictions.Add(1)
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
		if el, ok := seg.frames[id]; ok {
			seg.lru.Remove(el)
			delete(seg.frames, id)
			bp.size.Add(-1)
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
		for el := seg.lru.Front(); el != nil; el = el.Next() {
			f := el.Value.(*frame)
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
		seg.lru.Init()
		clear(seg.frames)
		seg.mu.Unlock()
	}
	bp.size.Store(0)
	return nil
}

// ResetStats zeroes the hit/miss accounting, including the per-segment
// counters.
func (bp *BufferPool) ResetStats() {
	bp.hits.Store(0)
	bp.misses.Store(0)
	bp.evictions.Store(0)
	bp.writeBacks.Store(0)
	for _, seg := range bp.segs {
		seg.hits.Store(0)
		seg.misses.Store(0)
	}
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

// Segments reports the number of independently locked LRU segments
// (0 for a pass-through pool).
func (bp *BufferPool) Segments() int { return len(bp.segs) }

// SegmentStats is a point-in-time view of one pool segment, for the
// per-segment hit-ratio gauges.
type SegmentStats struct {
	Hits     int64
	Misses   int64
	Len      int
	Capacity int
}

// HitRatio is hits / (hits + misses), or 0 with no traffic.
func (s SegmentStats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// SegmentStats snapshots every segment's counters in index order.
func (bp *BufferPool) SegmentStats() []SegmentStats {
	out := make([]SegmentStats, len(bp.segs))
	for i, seg := range bp.segs {
		seg.mu.Lock()
		n := seg.lru.Len()
		seg.mu.Unlock()
		out[i] = SegmentStats{
			Hits:     seg.hits.Load(),
			Misses:   seg.misses.Load(),
			Len:      n,
			Capacity: seg.capacity,
		}
	}
	return out
}
