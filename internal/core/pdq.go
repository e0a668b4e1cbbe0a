package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"dynq/internal/geom"
	"dynq/internal/pager"
	"dynq/internal/rtree"
	"dynq/internal/stats"
	"dynq/internal/trajectory"
)

// PDQOptions tune a predictive dynamic query session.
type PDQOptions struct {
	// LiveUpdates subscribes the session to index insertions so objects
	// inserted while the query runs still appear (Section 4.1's update
	// management). Leave false for historical (read-only) workloads.
	LiveUpdates bool
}

// PDQ evaluates a predictive dynamic query: the observer's trajectory is
// registered up front and results are drained window by window, in order
// of the time they become visible. Each index node is read at
// most once over the whole dynamic query, which is the source of the
// paper's I/O improvement (Figure 6).
//
// A PDQ is not safe for concurrent Drain calls; concurrent index
// insertions are safe when LiveUpdates is enabled.
type PDQ struct {
	tree *rtree.Tree
	traj *trajectory.Trajectory
	c    *stats.Counters

	pq      queue[pdqItem, *pdqItem]
	seq     uint64 // monotone tiebreak for deterministic pop order
	lastPop pdqKey
	havePop bool
	closed  bool
	unsub   func()

	inboxMu sync.Mutex
	inbox   []rtree.Update // at most inboxCap
	rebuild bool
	behind  bool // the rebuild is for an overflowed inbox alone

	// A live session keeps the episodes it delivered that may still be
	// visible. A rebuild for an overflowed inbox catches up on what the
	// session missed and skips those when it finds them again; a reseed
	// starts over and delivers them anew.
	shown     []pdqKey
	shownTrim int             // len(shown) past which expired episodes are dropped
	skip      map[pdqKey]bool // what a catch-up skips, until all of it is over (skipEnd)
	skipEnd   float64

	kept pdqArena   // the leaf entries object items name
	slab rtree.Slab // where kept entries' points are copied off the page

	// Scratch reused across expansions.
	set   geom.IntervalSet // one entry's visibility episodes
	box   geom.Box         // one child box
	lines []geom.Linear    // the leaf entry under test, a linear form per dimension
	entry rtree.LeafEntry  // the same, decoded, for an Instant trajectory

	// gate counts the leaf entries that reached the swept-box gate and
	// those it kept from OverlapMotion (tests hold it to a floor).
	gate struct{ tested, rejected int }
}

// NewPDQ starts a predictive dynamic query session over the tree for the
// given observer trajectory, charging all I/O and CPU to c.
func NewPDQ(tree *rtree.Tree, traj *trajectory.Trajectory, opts PDQOptions, c *stats.Counters) (*PDQ, error) {
	if traj.Dims() != tree.Config().Dims {
		return nil, fmt.Errorf("core: trajectory has %d dims, index has %d", traj.Dims(), tree.Config().Dims)
	}
	d := traj.Dims()
	p := &PDQ{tree: tree, traj: traj, c: c, box: make(geom.Box, d+2), lines: make([]geom.Linear, d)}
	p.seedFromRoot()
	if opts.LiveUpdates {
		p.unsub = tree.OnUpdate(p.enqueueUpdate)
	}
	return p, nil
}

// inboxCap bounds a live session's pending notifications. A session that
// does not fetch while the index takes writes would otherwise keep every
// one of them; past the cap it drops them all and rebuilds from the root
// at its next fetch, as after a reseed.
const inboxCap = 4096

// seedFromRoot computes the root's overlap with the trajectory and primes
// the queue (the first step of Section 4.1's algorithm).
func (p *PDQ) seedFromRoot() {
	root, _, ok := p.tree.Root()
	if !ok {
		return
	}
	// The root's box is not stored anywhere above it; treat it as always
	// potentially overlapping and let exploration refine. Seeding with the
	// whole trajectory span is sound: the root is popped once.
	p.pushNode(root, p.traj.TimeSpan())
}

// enqueueUpdate receives update notifications. It runs under the tree
// lock, so it only records the update; Drain integrates the inbox before
// consulting the queue. A reseed notification (a deletion freed pages the
// queue may name), or one more update than the inbox holds, forces a
// rebuild from the root, which reads every update made until then; every
// other update is patched in by LCA re-insertion.
func (p *PDQ) enqueueUpdate(u rtree.Update) {
	p.inboxMu.Lock()
	defer p.inboxMu.Unlock()
	switch {
	case u.Kind == rtree.UpdateReseed:
		p.rebuild, p.behind, p.inbox = true, false, nil
	case p.rebuild:
	case len(p.inbox) == inboxCap:
		p.rebuild, p.behind, p.inbox = true, true, nil
	default:
		p.inbox = append(p.inbox, u)
	}
}

// drainInbox integrates pending update notifications into the priority
// queue: subtree notifications enqueue the subtree root with its overlap
// episodes, entry notifications enqueue the segment directly. A session
// without a subscription has nothing to integrate.
func (p *PDQ) drainInbox() {
	if p.unsub == nil {
		return
	}
	p.inboxMu.Lock()
	inbox := p.inbox
	p.inbox = nil
	rebuild, behind := p.rebuild, p.behind
	p.rebuild, p.behind = false, false
	p.inboxMu.Unlock()

	if rebuild {
		p.pq = p.pq[:0]
		p.kept.reset()
		p.havePop = false
		p.skip, p.skipEnd = nil, 0
		if behind {
			p.skip = make(map[pdqKey]bool, len(p.shown))
			for _, k := range p.shown {
				p.skip[k] = true
				p.skipEnd = max(p.skipEnd, k.iv.Hi)
			}
		}
		p.seedFromRoot()
		return
	}
	set := &p.set
	for _, u := range inbox {
		set.Reset()
		switch u.Kind {
		case rtree.UpdateEntry:
			p.c.AddDistanceComps(1)
			p.traj.OverlapSegment(u.Entry.Seg, set)
			if set.Empty() {
				continue
			}
			slot := p.kept.put()
			p.kept.slots[slot].entry = u.Entry
			for _, iv := range set.Intervals() {
				p.pushObject(iv, slot, true) // the notification's segment is every listener's
			}
		case rtree.UpdateSubtree:
			p.c.AddDistanceComps(1)
			p.traj.OverlapBox(u.Box, set)
			for _, iv := range set.Intervals() {
				p.pushNode(u.Node, iv)
			}
		}
	}
}

// DrainTo appends to out every object that becomes visible during
// [tStart, tEnd] and has not been delivered yet, and returns the extended
// slice. It is Algorithm 4.1 of the paper, getNext run until the window
// has nothing more: items are popped in visibility-start order; expired
// items (already invisible before tStart) are dropped; node items are
// expanded by computing each child's overlap episodes; duplicate items
// produced by update management are eliminated on pop.
//
// Callers advance tStart/tEnd monotonically along the trajectory (one
// window per pair of key snapshots, or per rendered frame). After an error
// the returned slice holds what the window gathered before it, and the
// session stays usable: a retried window delivers the rest.
func (p *PDQ) DrainTo(tStart, tEnd float64, out []Result) ([]Result, error) {
	if p.closed {
		return out, fmt.Errorf("core: Drain on closed PDQ")
	}
	if tEnd < tStart {
		return out, fmt.Errorf("core: Drain window [%g,%g] is empty", tStart, tEnd)
	}
	p.drainInbox()
	// An episode over before this window cannot be delivered again.
	if len(p.shown) > p.shownTrim {
		p.shown = slices.DeleteFunc(p.shown, func(k pdqKey) bool { return k.iv.Hi < tStart })
		p.shownTrim = 2*len(p.shown) + 64
	}
	if p.skip != nil && tStart > p.skipEnd {
		p.skip = nil
	}
	for len(p.pq) > 0 && tEnd >= p.pq[0].key.iv.Lo {
		item := p.pq.pop()
		var e rtree.LeafEntry
		var last bool // no other queued item names e
		if item.key.isObj {
			e, last = p.kept.release(item.slot) // every pop below is the item's last use
		}
		// Duplicate elimination (Section 4.1): duplicates share a priority
		// and therefore pop adjacently.
		if p.havePop && item.key == p.lastPop {
			continue
		}
		p.lastPop, p.havePop = item.key, true

		if tStart > item.key.iv.Hi {
			// The item's visibility ended before the window of interest;
			// the query has moved past it.
			continue
		}
		if item.key.isObj {
			if p.skip != nil && p.skip[item.key] {
				continue // delivered before the rebuild found it again
			}
			if p.unsub != nil {
				p.shown = append(p.shown, item.key)
			}
			p.c.AddResults(1)
			// A result's memory is the caller's alone: an entry that later
			// episodes or other sessions also hold is copied again.
			if item.shared || !last {
				e.Seg = e.Seg.Clone()
			}
			out = append(out, Result{ID: e.ID, Seg: e.Seg, Appear: item.key.iv.Lo, Disappear: item.key.iv.Hi})
			continue
		}
		if err := p.expand(item, tStart); err != nil {
			if p.stale() {
				// A deletion freed pages after the inbox was drained: the
				// node just asked for may be one of them, or re-used by
				// now. Start over from the root, as the notification asks.
				p.drainInbox()
				continue
			}
			// The node was not read: queue it again for the retry, which
			// pops it first and must not take it for its own duplicate.
			p.pq.push(item)
			p.havePop = false
			return out, err
		}
	}
	return out, nil
}

// Drain is DrainTo into a new slice: the per-frame fetch loop of the
// visualization client.
func (p *PDQ) Drain(tStart, tEnd float64) ([]Result, error) {
	return p.DrainTo(tStart, tEnd, nil)
}

// errStale ends an expansion that found a reseed notification pending.
var errStale = errors.New("core: predictive queue names freed pages")

// stale reports whether a reseed notification is waiting in the inbox.
// Notifications are sent under the tree's exclusive lock, so inside a View
// (which holds the shared lock) the answer covers every deletion so far.
func (p *PDQ) stale() bool {
	if p.unsub == nil {
		return false
	}
	p.inboxMu.Lock()
	defer p.inboxMu.Unlock()
	return p.rebuild
}

// expand reads a node in place (one disk access) and enqueues every child
// whose visibility has not already ended.
func (p *PDQ) expand(item pdqItem, tStart float64) error {
	return p.tree.View(item.key.node, p.c, func(v rtree.NodeView) error {
		if p.stale() {
			return errStale // the page may have been re-used: v is not the node that was queued
		}
		// One distance computation per entry examined.
		p.c.AddDistanceComps(v.Len())
		if v.Leaf() {
			p.expandLeaf(v, tStart)
			return nil
		}
		set := &p.set
		pruned := 0
		for k := 0; k < v.Len(); k++ {
			v.ChildBox(k, p.box)
			set.Reset()
			p.traj.OverlapBox(p.box, set)
			if set.Empty() {
				// The trajectory never meets this subtree: pruned without
				// ever being loaded.
				pruned++
				continue
			}
			for _, iv := range set.Intervals() {
				if tStart <= iv.Hi {
					p.pushNode(v.ChildID(k), iv)
				}
			}
		}
		p.c.AddPruned(pruned)
		return nil
	})
}

// expandLeaf tests a leaf's entries against the trajectory where they lie
// and queues every episode not over before tStart.
func (p *PDQ) expandLeaf(v rtree.NodeView, tStart float64) {
	set := &p.set
	swept := p.traj.Swept()
	instant := p.traj.Instant()
	for k, n := 0, v.Len(); ; k++ {
		// The scan skips, in place, what OverlapMotion would find nothing
		// in: an entry never valid on the way or over by tStart, and one
		// the swept-box gate rejects, by comparisons.
		var rejected int
		k, rejected = v.NextSwept(k, n, tStart, swept)
		p.gate.tested += rejected
		p.gate.rejected += rejected
		if k == n {
			return
		}
		set.Reset()
		if instant {
			v.Entry(k, &p.entry)
			p.traj.OverlapSegment(p.entry.Seg, set)
		} else {
			p.gate.tested++
			p.traj.OverlapMotion(v.EntryLines(k, p.lines), p.lines, set)
		}
		// Episodes are sorted and disjoint: those already over come first.
		ivs := set.Intervals()
		for len(ivs) > 0 && tStart > ivs[0].Hi {
			ivs = ivs[1:]
		}
		if len(ivs) == 0 {
			continue
		}
		// The queue outlives the view: the entry's episodes share one copy
		// of it, kept where it stays (rtree.NodeView.KeepSeg).
		slot := p.kept.put()
		e := &p.kept.slots[slot].entry
		e.ID = v.KeepSeg(k, &p.slab, &e.Seg)
		for _, iv := range ivs {
			p.pushObject(iv, slot, false)
		}
	}
}

// Close releases the session's update subscription. The session must not
// be used afterwards.
func (p *PDQ) Close() {
	if p.closed {
		return
	}
	p.closed = true
	if p.unsub != nil {
		p.unsub()
	}
	p.pq = nil
	p.kept = pdqArena{}
}

func (p *PDQ) pushNode(id pager.PageID, iv geom.Interval) {
	if iv.Empty() {
		return
	}
	p.seq++
	p.pq.push(pdqItem{
		key: pdqKey{iv: iv, node: id},
		seq: p.seq,
	})
}

// pushObject queues one visibility episode (non-empty, from an interval
// set) of the entry the arena holds in slot. shared says its Seg is held
// outside the session too, so delivery must copy it even when no other
// item names the slot.
func (p *PDQ) pushObject(iv geom.Interval, slot int32, shared bool) {
	sl := &p.kept.slots[slot]
	sl.refs++
	e := &sl.entry
	p.seq++
	p.pq.push(pdqItem{
		key:    pdqKey{iv: iv, isObj: true, obj: e.ID, segStart: e.Seg.T.Lo},
		slot:   slot,
		shared: shared,
		seq:    p.seq,
	})
}

// pdqKey identifies a queue item for ordering and duplicate elimination.
// Two notifications for the same node (or the same segment episode)
// produce equal keys and pop adjacently. A node's page fixes its level.
type pdqKey struct {
	iv       geom.Interval
	obj      rtree.ObjectID
	segStart float64
	node     pager.PageID
	isObj    bool
}

// pdqItem holds no pointer, so the queue moves items without write
// barriers: an object item names its entry by arena slot.
type pdqItem struct {
	key    pdqKey
	seq    uint64
	slot   int32 // the entry in PDQ.kept, when key.isObj
	shared bool  // the entry's Seg is also held outside the session
}

// pdqArena holds the leaf entries of queued object items, one slot per
// entry however many episodes of it are queued. A slot counts the items
// naming it and is reused once the last of them has popped, whichever way:
// delivered, expired or a duplicate. A rebuild from the root drops the
// queue and every slot with it.
type pdqArena struct {
	slots []pdqSlot
	free  []int32
}

type pdqSlot struct {
	entry rtree.LeafEntry
	refs  int32
}

// put returns a free slot, its entry zero and no items naming it yet, for
// the caller to fill in place.
func (a *pdqArena) put() int32 {
	if n := len(a.free); n > 0 {
		s := a.free[n-1]
		a.free = a.free[:n-1]
		return s
	}
	a.slots = append(a.slots, pdqSlot{})
	return int32(len(a.slots) - 1)
}

// release drops one popped item's hold on slot s and returns its entry.
// Once no item names the slot it is freed and last is true: the entry's
// points are left to its receiver.
func (a *pdqArena) release(s int32) (e rtree.LeafEntry, last bool) {
	sl := &a.slots[s]
	e = sl.entry
	if sl.refs--; sl.refs > 0 {
		return e, false
	}
	sl.entry = rtree.LeafEntry{}
	a.free = append(a.free, s)
	return e, true
}

func (a *pdqArena) reset() {
	clear(a.slots)
	a.slots, a.free = a.slots[:0], a.free[:0]
}

// less is a strict total order (seq is unique), so the pop order does not
// depend on how the heap arranges equal priorities.
func (a *pdqItem) less(b *pdqItem) bool {
	ka, kb := &a.key, &b.key
	if ka.iv.Lo != kb.iv.Lo {
		return ka.iv.Lo < kb.iv.Lo
	}
	// Total order among equal priorities so duplicates are adjacent.
	if ka.isObj != kb.isObj {
		return !ka.isObj // nodes first: they may reveal earlier objects
	}
	if ka.isObj {
		if ka.obj != kb.obj {
			return ka.obj < kb.obj
		}
		if ka.segStart != kb.segStart {
			return ka.segStart < kb.segStart
		}
	} else {
		if ka.node != kb.node {
			return ka.node < kb.node
		}
	}
	if ka.iv.Hi != kb.iv.Hi {
		return ka.iv.Hi < kb.iv.Hi
	}
	return a.seq < b.seq
}
