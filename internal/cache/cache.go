// Package cache implements the client-side result cache of Section 4.1:
// the database returns each object together with the time it will leave
// the observer's view, and the client keeps objects "keyed on their
// disappearance time, discarding them from the cache at that time". The
// server never re-sends an object while it remains visible, so this cache
// plus the incremental query stream reconstructs the full visible set at
// every frame.
package cache

import (
	"container/heap"
)

// Cache is a disappearance-time cache mapping object ids to values.
// Put upserts an object with its eviction deadline; Advance removes and
// returns everything whose deadline has passed. The zero Cache is not
// usable; call New.
type Cache[V any] struct {
	items map[uint64]*item[V]
	pq    expiryHeap[V]
}

type item[V any] struct {
	id        uint64
	value     V
	disappear float64
	index     int // heap index, -1 when removed
}

// New creates an empty cache.
func New[V any]() *Cache[V] {
	return &Cache[V]{items: make(map[uint64]*item[V])}
}

// Put inserts or refreshes an object. A later Put for the same id
// replaces the value and deadline (an object re-entering the view gets a
// new disappearance time).
func (c *Cache[V]) Put(id uint64, v V, disappear float64) {
	if it, ok := c.items[id]; ok {
		it.value = v
		it.disappear = disappear
		heap.Fix(&c.pq, it.index)
		return
	}
	it := &item[V]{id: id, value: v, disappear: disappear}
	c.items[id] = it
	heap.Push(&c.pq, it)
}

// Get returns the cached value for id, if present.
func (c *Cache[V]) Get(id uint64) (V, bool) {
	if it, ok := c.items[id]; ok {
		return it.value, true
	}
	var zero V
	return zero, false
}

// Advance evicts every object whose disappearance time has been reached
// (deadline <= now), returning the evicted values. The paper keys cached
// objects on disappearance time and discards them "at that time"
// (Section 4.1): an object disappearing exactly at now has left the view.
func (c *Cache[V]) Advance(now float64) []V {
	var evicted []V
	for c.pq.Len() > 0 && c.pq[0].disappear <= now {
		it := heap.Pop(&c.pq).(*item[V])
		delete(c.items, it.id)
		evicted = append(evicted, it.value)
	}
	return evicted
}

// Len reports the number of cached objects.
func (c *Cache[V]) Len() int { return len(c.items) }

// Values returns all cached values in unspecified order.
func (c *Cache[V]) Values() []V {
	out := make([]V, 0, len(c.items))
	for _, it := range c.items {
		out = append(out, it.value)
	}
	return out
}

type expiryHeap[V any] []*item[V]

func (h expiryHeap[V]) Len() int { return len(h) }
func (h expiryHeap[V]) Less(i, j int) bool {
	if h[i].disappear != h[j].disappear {
		return h[i].disappear < h[j].disappear
	}
	return h[i].id < h[j].id
}
func (h expiryHeap[V]) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *expiryHeap[V]) Push(x any) {
	it := x.(*item[V])
	it.index = len(*h)
	*h = append(*h, it)
}
func (h *expiryHeap[V]) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	it.index = -1
	*h = old[:n-1]
	return it
}
