// Package rtree implements the disk-based R-tree used for Native Space
// Indexing (NSI) of mobile-object motion (Section 3.2 of the paper).
//
// Each motion update of an object contributes one linear motion segment.
// Internal nodes store the space-time bounding boxes of their subtrees as
// float32 extents (yielding the paper's fanouts: 145 internal / 127 leaf
// entries per 4 KiB page for d=2). Leaf nodes store the exact segment end
// points rather than bounding boxes, enabling the exact leaf-level
// intersection test of [13,14,15] that avoids false admissions.
//
// Internally every box carries *dual* temporal axes — separate ranges for
// segment start times and end times (Figure 5(b)) — since the dual box
// determines the single-axis (union) interval but not vice versa. The
// on-disk layout is configurable: the single-axis layout matches the
// paper's PDQ experiments; the dual layout is required for NPDQ
// discardability to have any pruning power.
//
// The tree supports the paper's two update-management hooks: every node
// carries a modification stamp (NPDQ, Section 4.2), and every insertion
// reports the lowest common ancestor of all newly created nodes so that
// running predictive queries can extend their priority queues (PDQ,
// Section 4.1, Figure 4). Newly created split nodes are forced onto the
// insertion path to make that ancestor well defined.
package rtree

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"dynq/internal/geom"
	"dynq/internal/pager"
	"dynq/internal/stats"
)

// ObjectID identifies a mobile object. One object contributes many
// segments (one per motion update).
type ObjectID uint64

// Config fixes the shape of a tree. The zero value is not valid; use
// DefaultConfig.
type Config struct {
	// Dims is the number of spatial dimensions d (2 in the paper).
	Dims int
	// DualTime selects the dual-temporal-axes on-disk layout for internal
	// entries (needed by NPDQ discardability, Figure 5(b)). It reduces
	// internal fanout (113 vs 145 at d=2).
	DualTime bool
	// MinFill is the minimum node occupancy as a fraction of the maximum
	// (Guttman's m/M). Splits and deletions maintain it.
	MinFill float64
	// BulkFill is the target occupancy for bulk loading (the paper's
	// "0.5 fill factor").
	BulkFill float64
}

// DefaultConfig returns the configuration of the paper's experiments:
// 2 spatial dimensions, 0.4 minimum fill, 0.5 bulk fill. Every tree
// splits an over-full node with the R*-tree's axis split (splitGroups).
func DefaultConfig() Config {
	return Config{Dims: 2, MinFill: 0.4, BulkFill: 0.5}
}

// maxDims is the largest Config.Dims accepted.
const maxDims = 8

func (c Config) validate() error {
	if c.Dims < 1 || c.Dims > maxDims {
		return fmt.Errorf("rtree: Dims must be in [1,%d], got %d", maxDims, c.Dims)
	}
	if c.MinFill <= 0 || c.MinFill > 0.5 {
		return fmt.Errorf("rtree: MinFill must be in (0,0.5], got %g", c.MinFill)
	}
	if c.BulkFill <= 0 || c.BulkFill > 1 {
		return fmt.Errorf("rtree: BulkFill must be in (0,1], got %g", c.BulkFill)
	}
	return nil
}

// boxDims returns the dimensionality of in-memory boxes: d spatial extents
// followed by a start-time extent and an end-time extent.
func (c Config) boxDims() int { return c.Dims + 2 }

// MaxLeafEntries returns the leaf fanout implied by the page size.
func (c Config) MaxLeafEntries() int {
	return (pager.PageSize - nodeHeaderSize) / c.leafEntrySize()
}

// MaxInternalEntries returns the internal fanout implied by the page size
// and temporal layout.
func (c Config) MaxInternalEntries() int {
	return (pager.PageSize - nodeHeaderSize) / c.internalEntrySize()
}

func (c Config) leafEntrySize() int {
	// object id + start point + end point + [t_l, t_h], all coordinates f32.
	return 8 + (2*c.Dims+2)*4
}

func (c Config) internalEntrySize() int {
	n := 2*c.Dims + 2 // spatial extents + single time extent
	if c.DualTime {
		n += 2 // separate start-time and end-time extents
	}
	return n*4 + 4 // f32 bounds + child page id
}

// fanout is the most entries a leaf or an internal node holds.
func (c Config) fanout(leaf bool) int {
	if leaf {
		return c.MaxLeafEntries()
	}
	return c.MaxInternalEntries()
}

// layout is where a leaf's or an internal node's entries lie on its page.
func (c Config) layout(leaf bool) entryLayout {
	size := c.internalEntrySize()
	if leaf {
		size = c.leafEntrySize()
	}
	return entryLayout{stride: uint16(size), dims: uint8(c.Dims), dual: c.DualTime}
}

func (c Config) minLeafEntries() int {
	m := int(math.Floor(float64(c.MaxLeafEntries()) * c.MinFill))
	if m < 1 {
		m = 1
	}
	return m
}

// minFill is the minimum occupancy of a node at the given level.
func (c Config) minFill(level int) int {
	if level == 0 {
		return c.minLeafEntries()
	}
	return c.minInternalEntries()
}

func (c Config) minInternalEntries() int {
	m := int(math.Floor(float64(c.MaxInternalEntries()) * c.MinFill))
	if m < 2 {
		m = 2
	}
	return m
}

// LeafEntry is an indexed motion segment: the exact end-point
// representation kept at the leaf level.
type LeafEntry struct {
	ID  ObjectID
	Seg geom.Segment
}

// Box returns the segment's box in the tree's dual space-time key space:
// d spatial extents, then the degenerate start-time and end-time extents.
func (e LeafEntry) Box(dims int) geom.Box {
	b := make(geom.Box, dims+2)
	e.fillBox(b)
	return b
}

// fillBox is Box into caller-owned storage of dims+2 extents.
func (e LeafEntry) fillBox(b geom.Box) {
	dims := len(b) - 2
	for i := 0; i < dims; i++ {
		lo, hi := e.Seg.Start[i], e.Seg.End[i]
		if lo > hi {
			lo, hi = hi, lo
		}
		b[i] = geom.Interval{Lo: lo, Hi: hi}
	}
	b[dims] = geom.IntervalOf(e.Seg.T.Lo)
	b[dims+1] = geom.IntervalOf(e.Seg.T.Hi)
}

// UpdateKind distinguishes the shapes of PDQ update notifications.
type UpdateKind int

// Notification kinds.
const (
	// UpdateEntry reports a single inserted segment (no structural
	// change to the tree: some existing leaf absorbed it).
	UpdateEntry UpdateKind = iota
	// UpdateSubtree reports the top-most newly created node. Everything
	// new — including the inserted segment — lies beneath it.
	UpdateSubtree
	// UpdateReseed reports that a deletion freed at least one node page:
	// a page id a session still holds may now be free or re-used, so the
	// session must forget its queue and start again from the root. No
	// other field is meaningful.
	UpdateReseed
)

// Update describes one index change to a running dynamic query (Section
// 4.1, Figure 4). Either Entry is meaningful (UpdateEntry) or Node/Level/Box
// are (UpdateSubtree).
type Update struct {
	Kind  UpdateKind
	Entry LeafEntry
	Node  pager.PageID
	Level int
	Box   geom.Box
}

// Tree is a disk-based R-tree. All exported methods are safe for
// concurrent use: read operations (searches, node views, accessors) hold
// a shared lock and run in parallel against the lock-sharded buffer
// pool, while writes (a Batch, from Begin to Commit or Rollback, and bulk
// load) hold the exclusive lock.
type Tree struct {
	mu       sync.RWMutex
	cfg      Config
	pool     *pager.BufferPool
	storeRef pager.Store

	root   pager.PageID
	height int // number of levels; 0 for an empty tree
	size   int // number of indexed segments

	modSeq      uint64
	listeners   map[uint64]func(Update)
	listenerSeq uint64

	scratch []byte // where a new page is assembled (fresh) before the pool takes it

	log  *undoLog // the open batch's undo log, nil outside a batch
	undo undoLog  // the log batches reuse

	// mc, when set, is charged for index maintenance costs (page
	// writes) that have no per-query counter to bill to. Nil-safe.
	mc *stats.Counters
}

// New creates an empty tree over store. A nil pool option means direct
// store access (every node load is a disk access, the paper's setting).
func New(cfg Config, store pager.Store) (*Tree, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	t := &Tree{
		cfg:       cfg,
		pool:      pager.NewBufferPool(store, 0),
		storeRef:  store,
		root:      pager.InvalidPage,
		scratch:   make([]byte, pager.PageSize),
		listeners: make(map[uint64]func(Update)),
	}
	return t, nil
}

// NewBuffered creates an empty tree whose page reads and writes go
// through an LRU buffer pool of the given page capacity.
func NewBuffered(cfg Config, store pager.Store, bufferPages int) (*Tree, error) {
	t, err := New(cfg, store)
	if err != nil {
		return nil, err
	}
	t.pool = pager.NewBufferPool(store, bufferPages)
	return t, nil
}

// Config returns the tree's configuration.
func (t *Tree) Config() Config { return t.cfg }

// SetCounters attaches the counters charged for index maintenance (page
// writes). Query-time costs keep flowing to the per-call counters.
func (t *Tree) SetCounters(c *stats.Counters) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.mc = c
}

// Pool exposes the tree's buffer pool (for ablation accounting and cache
// invalidation between queries).
func (t *Tree) Pool() *pager.BufferPool { return t.pool }

// UseBuffer replaces the tree's buffer pool with an LRU pool of the given
// page capacity, flushing any dirty frames first.
func (t *Tree) UseBuffer(pages int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.pool.Flush(); err != nil {
		return err
	}
	// The pool wraps the same store the current one does; reconstruct it
	// through the store captured at creation time.
	t.pool = pager.NewBufferPool(t.storeRef, pages)
	return nil
}

// Size returns the number of indexed segments.
func (t *Tree) Size() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.size
}

// ModSeq returns the current modification sequence number. Queries record
// it to later decide whether a node changed since they last ran (NPDQ
// update management).
func (t *Tree) ModSeq() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.modSeq
}

// Root returns the root page and its level; ok is false for an empty
// tree.
func (t *Tree) Root() (id pager.PageID, level int, ok bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return Reader{t}.Root()
}

// OnUpdate registers a listener invoked (synchronously, under the tree
// lock) for every insertion, and for every deletion that frees a page,
// in order, when the batch that made them commits; a batch rolled back
// notifies nobody. Running PDQ sessions use it to keep their priority
// queues complete under concurrent updates. The returned function
// unregisters the listener; listeners must not call back into the tree.
func (t *Tree) OnUpdate(fn func(Update)) (unsubscribe func()) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.listenerSeq++
	id := t.listenerSeq
	t.listeners[id] = fn
	return func() {
		t.mu.Lock()
		defer t.mu.Unlock()
		delete(t.listeners, id)
	}
}

// QueryBox maps a snapshot query — a spatial range and a time interval —
// into the tree's dual key space: a segment matches the box filter iff its
// spatial extents overlap the range, its start time is ≤ the query's end,
// and its end time is ≥ the query's start.
func QueryBox(spatial geom.Box, tw geom.Interval) geom.Box {
	q := make(geom.Box, len(spatial)+2)
	fillQueryBox(q, spatial, tw)
	return q
}

func fillQueryBox(q, spatial geom.Box, tw geom.Interval) {
	d := len(spatial)
	copy(q, spatial)
	q[d] = geom.Interval{Lo: math.Inf(-1), Hi: tw.Hi}  // start-time axis
	q[d+1] = geom.Interval{Lo: tw.Lo, Hi: math.Inf(1)} // end-time axis
}

// Query is one snapshot query in the two forms a traversal tests against,
// both slices of one slab that Fill allocates once and then reuses, and
// how the leaf scans may test them.
type Query struct {
	Box   geom.Box // dual key space (QueryBox): what node and entry boxes are tested against
	Exact geom.Box // spatial extents + the time window, for the exact leaf test
	// ordered: every extent of Box and Exact has Lo ≤ Hi — no NaN bound,
	// nothing inverted, as in every query the public API accepts — so the
	// leaf scans may decide by comparisons (NextBoxOverlap, NextOverlap).
	ordered bool
}

// Fill sets the query to the spatial range during tw. Every Fill of one
// Query must use the same dimensionality.
func (q *Query) Fill(spatial geom.Box, tw geom.Interval) {
	d := len(spatial)
	if q.Box == nil {
		slab := make(geom.Box, 2*d+3)
		q.Box, q.Exact = slab[:d+2:d+2], slab[d+2:]
	}
	fillQueryBox(q.Box, spatial, tw)
	copy(q.Exact, spatial)
	q.Exact[d] = tw
	q.classify()
}

// classify sets ordered from the query's boxes: once per query, for every
// leaf scan of its traversal.
func (q *Query) classify() {
	q.ordered = true
	for _, box := range [2]geom.Box{q.Box, q.Exact} {
		for _, b := range box {
			q.ordered = q.ordered && b.Lo <= b.Hi
		}
	}
}

// Window returns the query's time window.
func (q *Query) Window() geom.Interval { return q.Exact[len(q.Exact)-1] }

// ErrNotFound is returned by Delete when no matching segment exists.
var ErrNotFound = errors.New("rtree: entry not found")
