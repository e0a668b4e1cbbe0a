package dynq

import "dynq/internal/cache"

// ViewCache is the client-side companion of a dynamic query session
// (Section 4.1 of the paper): the server sends each object once, together
// with its disappearance time, and the client keeps it cached until then.
// Applying every batch of session results and advancing the clock each
// frame maintains the complete set of currently visible objects without
// the server ever re-sending one.
type ViewCache struct {
	c *cache.Cache[Result]
}

// NewViewCache creates an empty client cache.
func NewViewCache() *ViewCache {
	return &ViewCache{c: cache.New[Result]()}
}

// Apply upserts a batch of query results. A result for an object whose
// cached visibility episode is still open (the incoming Appear is not
// after the cached Disappear) is a re-announcement of that same episode —
// PDQ re-sends one only with a different segment, after a correction that
// kept the episode and moved the object, so it carries the new motion — and
// is merged into it: the cache keeps the new segment, the earliest
// appearance and the latest disappearance, so a re-send can never shrink
// the deadline. A result starting strictly after the cached episode ends
// (or for an uncached object) opens a new episode.
func (v *ViewCache) Apply(results []Result) {
	for _, r := range results {
		if cur, ok := v.c.Get(r.ID); ok && r.Appear <= cur.Disappear {
			if cur.Appear < r.Appear {
				r.Appear = cur.Appear
			}
			if cur.Disappear > r.Disappear {
				r.Disappear = cur.Disappear
			}
		}
		v.c.Put(r.ID, r, r.Disappear)
	}
}

// Advance evicts everything that has left the view by time now,
// returning the evicted results.
func (v *ViewCache) Advance(now float64) []Result {
	return v.c.Advance(now)
}

// Visible returns the currently cached (visible) objects in unspecified
// order.
func (v *ViewCache) Visible() []Result { return v.c.Values() }

// Len reports how many objects are currently cached.
func (v *ViewCache) Len() int { return v.c.Len() }
