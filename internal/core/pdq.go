package core

import (
	"errors"
	"fmt"
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
// registered up front and results are pulled incrementally with GetNext,
// in order of the time they become visible. Each index node is read at
// most once over the whole dynamic query, which is the source of the
// paper's I/O improvement (Figure 6).
//
// A PDQ is not safe for concurrent GetNext calls; concurrent index
// insertions are safe when LiveUpdates is enabled.
type PDQ struct {
	tree *rtree.Tree
	traj *trajectory.Trajectory
	c    *stats.Counters

	pq      pdqHeap
	seq     uint64 // monotone tiebreak for deterministic pop order
	lastPop pdqKey
	havePop bool
	closed  bool
	unsub   func()

	inboxMu sync.Mutex
	inbox   []rtree.Update
	rebuild bool

	// Scratch reused across expansions; only queued items are copied out.
	set   geom.IntervalSet // one entry's visibility episodes
	box   geom.Box         // one child box
	entry rtree.LeafEntry  // the leaf entry under test
}

// NewPDQ starts a predictive dynamic query session over the tree for the
// given observer trajectory, charging all I/O and CPU to c.
func NewPDQ(tree *rtree.Tree, traj *trajectory.Trajectory, opts PDQOptions, c *stats.Counters) (*PDQ, error) {
	if traj.Dims() != tree.Config().Dims {
		return nil, fmt.Errorf("core: trajectory has %d dims, index has %d", traj.Dims(), tree.Config().Dims)
	}
	p := &PDQ{tree: tree, traj: traj, c: c, box: make(geom.Box, traj.Dims()+2)}
	p.seedFromRoot()
	if opts.LiveUpdates {
		p.unsub = tree.OnUpdate(p.enqueueUpdate)
	}
	return p, nil
}

// seedFromRoot computes the root's overlap with the trajectory and primes
// the queue (the first step of Section 4.1's algorithm).
func (p *PDQ) seedFromRoot() {
	root, level, ok := p.tree.Root()
	if !ok {
		return
	}
	// The root's box is not stored anywhere above it; treat it as always
	// potentially overlapping and let exploration refine. Seeding with the
	// whole trajectory span is sound: the root is popped once.
	p.pushNode(root, level, p.traj.TimeSpan())
}

// enqueueUpdate receives update notifications. It runs under the tree
// lock, so it only records the update; GetNext integrates the inbox before
// consulting the queue. A reseed notification (a deletion freed pages the
// queue may name) forces a rebuild from the root; every other update is
// patched in by LCA re-insertion.
func (p *PDQ) enqueueUpdate(u rtree.Update) {
	p.inboxMu.Lock()
	defer p.inboxMu.Unlock()
	if u.Kind == rtree.UpdateReseed {
		p.rebuild = true
		p.inbox = p.inbox[:0]
		return
	}
	p.inbox = append(p.inbox, u)
}

// drainInbox integrates pending update notifications into the priority
// queue: subtree notifications enqueue the subtree root with its overlap
// episodes, entry notifications enqueue the segment directly.
func (p *PDQ) drainInbox() {
	p.inboxMu.Lock()
	inbox := p.inbox
	p.inbox = nil
	rebuild := p.rebuild
	p.rebuild = false
	p.inboxMu.Unlock()

	if rebuild {
		p.pq = p.pq[:0]
		p.havePop = false
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
			for _, iv := range set.Intervals() {
				p.pushObject(u.Entry, iv, true) // the notification's segment is every listener's
			}
		case rtree.UpdateSubtree:
			p.c.AddDistanceComps(1)
			p.traj.OverlapBox(u.Box, set)
			for _, iv := range set.Intervals() {
				p.pushNode(u.Node, u.Level, iv)
			}
		}
	}
}

// GetNext returns the next object that becomes visible during
// [tStart, tEnd], or nil when no (further) object appears in that window.
// It is Algorithm 4.1 of the paper: items are popped in visibility-start
// order; expired items (already invisible before tStart) are dropped;
// node items are expanded by computing each child's overlap episodes;
// duplicate items produced by update management are eliminated on pop.
//
// Callers advance tStart/tEnd monotonically along the trajectory (one
// window per pair of key snapshots, or per rendered frame).
func (p *PDQ) GetNext(tStart, tEnd float64) (*Result, error) {
	if p.closed {
		return nil, fmt.Errorf("core: GetNext on closed PDQ")
	}
	if tEnd < tStart {
		return nil, fmt.Errorf("core: GetNext window [%g,%g] is empty", tStart, tEnd)
	}
	p.drainInbox()
	for len(p.pq) > 0 && tEnd >= p.pq[0].key.iv.Lo {
		item := p.pq.pop()
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
			p.c.AddResults(1)
			// A result's memory is the caller's alone: a queued copy that
			// other items or other sessions also hold is copied again.
			seg := item.entry.Seg
			if item.shared {
				seg = seg.Clone()
			}
			return &Result{
				ID:        item.entry.ID,
				Seg:       seg,
				Appear:    item.key.iv.Lo,
				Disappear: item.key.iv.Hi,
			}, nil
		}
		if err := p.expand(item, tStart); err != nil {
			if p.stale() {
				// A deletion freed pages after the inbox was drained: the
				// node just asked for may be one of them, or re-used by
				// now. Start over from the root, as the notification asks.
				p.drainInbox()
				continue
			}
			return nil, err
		}
	}
	return nil, nil
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
		set := &p.set
		if v.Leaf() {
			span := p.traj.TimeSpan()
			for k := 0; k < v.Len(); k++ {
				// Every episode lies inside validity ∩ trajectory span
				// (OverlapSegment's first step), so an entry that is over
				// by then, or never valid on the way, is not decoded.
				if w := v.EntryTime(k).Intersect(span); w.Empty() || tStart > w.Hi {
					continue
				}
				v.Entry(k, &p.entry)
				set.Reset()
				p.traj.OverlapSegment(p.entry.Seg, set)
				// Episodes are sorted and disjoint: those already over
				// come first.
				ivs := set.Intervals()
				for len(ivs) > 0 && tStart > ivs[0].Hi {
					ivs = ivs[1:]
				}
				if len(ivs) == 0 {
					continue
				}
				// The queue outlives the view: the entry's episodes share
				// one copy of it.
				kept := rtree.LeafEntry{ID: p.entry.ID, Seg: p.entry.Seg.Clone()}
				for _, iv := range ivs {
					p.pushObject(kept, iv, len(ivs) > 1)
				}
			}
			return nil
		}
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
					p.pushNode(v.ChildID(k), v.Level()-1, iv)
				}
			}
		}
		p.c.AddPruned(pruned)
		return nil
	})
}

// Drain pulls every remaining result visible during [tStart, tEnd],
// repeatedly calling GetNext. It is the per-frame fetch loop of the
// visualization client.
func (p *PDQ) Drain(tStart, tEnd float64) ([]Result, error) {
	var out []Result
	for {
		r, err := p.GetNext(tStart, tEnd)
		if err != nil {
			return out, err
		}
		if r == nil {
			return out, nil
		}
		out = append(out, *r)
	}
}

// Pending reports the number of queued items (diagnostics).
func (p *PDQ) Pending() int { return len(p.pq) }

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
}

func (p *PDQ) pushNode(id pager.PageID, level int, iv geom.Interval) {
	if iv.Empty() {
		return
	}
	p.seq++
	p.pq.push(pdqItem{
		key: pdqKey{iv: iv, node: id, level: level},
		seq: p.seq,
	})
}

// pushObject queues one visibility episode of e. shared says e.Seg is not
// this item's alone, so delivery must copy it.
func (p *PDQ) pushObject(e rtree.LeafEntry, iv geom.Interval, shared bool) {
	if iv.Empty() {
		return
	}
	p.seq++
	p.pq.push(pdqItem{
		key:    pdqKey{iv: iv, isObj: true, obj: e.ID, segStart: e.Seg.T.Lo},
		entry:  e,
		shared: shared,
		seq:    p.seq,
	})
}

// pdqKey identifies a queue item for ordering and duplicate elimination.
// Two notifications for the same node (or the same segment episode)
// produce equal keys and pop adjacently.
type pdqKey struct {
	iv       geom.Interval
	isObj    bool
	node     pager.PageID
	level    int
	obj      rtree.ObjectID
	segStart float64
}

type pdqItem struct {
	key    pdqKey
	entry  rtree.LeafEntry // valid when key.isObj
	shared bool            // entry.Seg is also held elsewhere
	seq    uint64
}

// pdqHeap is a binary min-heap of queue items under less, typed so that
// pushing and popping box nothing.
type pdqHeap []pdqItem

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

func (h *pdqHeap) push(it pdqItem) {
	*h = append(*h, it)
	q := *h
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q[i].less(&q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// pop removes and returns the least item of a non-empty heap.
func (h *pdqHeap) pop() pdqItem {
	q := *h
	n := len(q) - 1
	top := q[0]
	q[0] = q[n]
	q[n] = pdqItem{} // drop the segment reference
	q = q[:n]
	*h = q
	for i := 0; ; {
		least := i
		if l := 2*i + 1; l < n && q[l].less(&q[least]) {
			least = l
		}
		if r := 2*i + 2; r < n && q[r].less(&q[least]) {
			least = r
		}
		if least == i {
			return top
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
}
