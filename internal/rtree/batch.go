package rtree

import (
	"encoding/binary"
	"errors"
	"fmt"

	"dynq/internal/geom"
	"dynq/internal/pager"
)

// Batch is a sequence of writes to one tree that takes effect whole or not
// at all: Begin takes the tree's exclusive lock, Insert, Correct and Delete
// edit the pages in place as they always do, and Commit or Rollback ends
// the batch and releases the lock. Every byte an edit overwrites is first
// copied to the batch's undo log, so Rollback can put it back; page frees
// and listener notifications wait for Commit, and pages the batch
// allocated are freed again by Rollback. Readers never see a batch in
// progress, since it holds the lock from Begin to its end.
//
// ErrNotFound and a malformed segment are found before anything is edited,
// so an operation failing with either leaves the batch as it was and the
// batch may go on. After any other error the batch must be rolled back.
type Batch struct{ t *Tree }

// undoLog is what a batch changed, kept until it commits or rolls back.
type undoLog struct {
	// buf holds one record per edit, oldest first: the bytes the edit
	// overwrote, then their page id (4 bytes), offset (2) and length (2),
	// so that the records read back from the end.
	buf     []byte
	reached int            // the length buf reached in the last batch that ended
	allocs  []pager.PageID // pages the batch allocated: Rollback frees them
	frees   []pager.PageID // pages the batch released: Commit frees them
	notes   []Update       // notifications, delivered in order by Commit

	root         pager.PageID // the tree's state at Begin
	height, size int
	modSeq       uint64
}

// undoKeep is the most log capacity a tree keeps between batches: enough
// for a single insert that splits a node (a whole page and the edits
// around it), so that small batches reuse it, without holding a large
// batch's log for the life of the tree. A larger log is dropped when its
// batch ends, and the next one starts at the size it reached, so that a
// run of equal batches allocates their log once each and never grows it.
const undoKeep = 8 << 10

// Begin starts a batch, holding the tree's exclusive lock until Commit or
// Rollback.
func (t *Tree) Begin() Batch {
	t.mu.Lock()
	u := &t.undo
	u.root, u.height, u.size, u.modSeq = t.root, t.height, t.size, t.modSeq
	t.log = u
	return Batch{t}
}

// save copies n bytes of page id from off, about to be overwritten, to the
// log.
func (u *undoLog) save(id pager.PageID, page []byte, off, n int) {
	if u.buf == nil {
		u.buf = make([]byte, 0, max(u.reached+u.reached/4, undoKeep))
	}
	u.buf = append(u.buf, page[off:off+n]...)
	u.buf = binary.LittleEndian.AppendUint32(u.buf, uint32(id))
	u.buf = binary.LittleEndian.AppendUint16(u.buf, uint16(off))
	u.buf = binary.LittleEndian.AppendUint16(u.buf, uint16(n))
}

// Insert adds one motion segment, as Tree.Insert does.
func (b Batch) Insert(id ObjectID, seg geom.Segment) error {
	if err := b.t.checkSegment(seg); err != nil {
		return err
	}
	return b.t.insert(LeafEntry{ID: id, Seg: QuantizeSegment(seg)})
}

// Delete removes the segment of object id that starts at tStart, as
// Tree.Delete does.
func (b Batch) Delete(id ObjectID, tStart float64) error {
	t := b.t
	d := deletion{id: id, tStart: float64(float32(tStart))} // match on-disk quantization
	if err := t.delete(&d, nil); err != nil {
		return err
	}
	t.size--
	return nil
}

// Correct replaces the segment of object id that starts at tStart with seg
// — a dead-reckoning correction. Coordinates are quantized as Insert
// quantizes them. The old segment is looked for first where seg starts:
// at every node the children whose box holds that point at tStart are
// searched before the other children whose start-time extent admits
// tStart, which finds the same leaf sooner.
//
// When the replacement's box lies inside the box the leaf's parent stores
// for it (or the leaf is the root), the leaf overwrites the entry in its
// slot: one descent, and one page write per level, each node of the path
// committed with the new stamp and its box recomputed only where the old
// entry lay on a face, so every stored box stays the tight cover of its
// child. Nothing dissolves or splits, and listeners hear one UpdateEntry
// for the new segment — what a delete and an insert that split nothing
// tell them. Otherwise, decided before anything is edited, Correct is
// Delete followed by Insert. It returns ErrNotFound, changing nothing, if
// no such segment is indexed.
func (b Batch) Correct(id ObjectID, tStart float64, seg geom.Segment) error {
	t := b.t
	if err := t.checkSegment(seg); err != nil {
		return err
	}
	d := deletion{id: id, tStart: float64(float32(tStart)), correct: true, repl: LeafEntry{ID: id, Seg: QuantizeSegment(seg)}}
	var scratch [maxDims + 2]geom.Interval
	if err := t.delete(&d, probeBox(d.repl.Seg.Start, d.tStart, scratch[:0])); err != nil {
		return err
	}
	if d.inPlace {
		t.notify(Update{Kind: UpdateEntry, Entry: d.repl})
		return nil
	}
	t.size--
	return t.insert(d.repl)
}

// Commit makes the batch's writes final: it frees the pages the batch
// released, tells the listeners what changed, in order, and releases the
// tree. A page that fails to free stays allocated, unreachable from the
// tree; Commit reports the failure, but the batch stands.
func (b Batch) Commit() error {
	t := b.t
	u := t.log
	t.log = nil
	var errs []error
	for _, id := range u.frees {
		if err := t.pool.Free(id); err != nil {
			errs = append(errs, fmt.Errorf("rtree: free page %d: %w", id, err))
		}
	}
	for _, n := range u.notes {
		for _, fn := range t.listeners {
			fn(n)
		}
	}
	u.reset()
	t.mu.Unlock()
	return errors.Join(errs...)
}

// Rollback undoes the batch: it writes back every byte the batch
// overwrote, newest first, frees the pages it allocated and restores the
// root, height, size and modification sequence, then releases the tree.
// Nothing is freed that the batch released and no listener hears of it.
// If a page cannot be restored the tree no longer matches any state a
// caller saw, and Rollback says so.
func (b Batch) Rollback() error {
	t := b.t
	u := t.log
	t.log = nil
	defer t.mu.Unlock()
	defer u.reset()
	t.root, t.height, t.size, t.modSeq = u.root, u.height, u.size, u.modSeq
	var (
		errs []error
		ed   pager.Edit
		cur  = pager.InvalidPage
	)
	done := func() {
		if cur != pager.InvalidPage {
			if err := ed.Commit(); err != nil {
				errs = append(errs, fmt.Errorf("rtree: roll back page %d: %w", cur, err))
			}
			cur = pager.InvalidPage
		}
	}
	for end := len(u.buf); end > 0; {
		n := int(binary.LittleEndian.Uint16(u.buf[end-2:]))
		off := int(binary.LittleEndian.Uint16(u.buf[end-4:]))
		id := pager.PageID(binary.LittleEndian.Uint32(u.buf[end-8:]))
		old := u.buf[end-8-n : end-8]
		end -= 8 + n
		if id != cur {
			done()
			var err error
			if ed, err = t.pool.Edit(id); err != nil {
				errs = append(errs, fmt.Errorf("rtree: roll back page %d: %w", id, err))
				continue
			}
			cur = id
		}
		copy(ed.Page[off:], old)
	}
	done()
	// Newest first, so that a store's free list ends as it began.
	for i := len(u.allocs) - 1; i >= 0; i-- {
		if err := t.pool.Free(u.allocs[i]); err != nil {
			errs = append(errs, fmt.Errorf("rtree: roll back allocation of page %d: %w", u.allocs[i], err))
		}
	}
	return errors.Join(errs...)
}

// reset empties the log for the next batch, keeping small buffers.
func (u *undoLog) reset() {
	clear(u.notes) // they hold the batch's segments and boxes
	u.reached = len(u.buf)
	if cap(u.buf) > undoKeep {
		u.buf = nil
	}
	if cap(u.notes) > undoKeep/64 {
		u.notes = nil
	}
	u.buf, u.allocs, u.frees, u.notes = u.buf[:0], u.allocs[:0], u.frees[:0], u.notes[:0]
}

// allocPage allocates a page for the tree, recording it in an open batch.
func (t *Tree) allocPage() (pager.PageID, error) {
	id, err := t.pool.Alloc()
	if err == nil && t.log != nil {
		t.log.allocs = append(t.log.allocs, id)
	}
	return id, err
}

// notify queues u for the listeners; the batch's Commit delivers it. No
// listener can register while the batch holds the lock, so with none there
// is nothing to queue.
func (t *Tree) notify(u Update) {
	if len(t.listeners) > 0 {
		t.log.notes = append(t.log.notes, u)
	}
}

// End commits the batch if err is nil, returning what Commit reports, and
// otherwise rolls it back, returning err joined with any rollback failure.
func (b Batch) End(err error) error {
	if err == nil {
		return b.Commit()
	}
	if rerr := b.Rollback(); rerr != nil {
		return errors.Join(err, rerr)
	}
	return err
}

// one runs fn as a batch of its own.
func (t *Tree) one(fn func(Batch) error) error {
	b := t.Begin()
	return b.End(fn(b))
}
