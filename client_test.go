package dynq

import "testing"

// cached returns the one result the cache holds, failing unless it holds
// exactly one and it is for object id.
func cached(t *testing.T, v *ViewCache, id ObjectID) Result {
	t.Helper()
	vis := v.Visible()
	if v.Len() != 1 || len(vis) != 1 || vis[0].ID != id {
		t.Fatalf("cache holds %+v (len %d), want object %d alone", vis, v.Len(), id)
	}
	return vis[0]
}

// TestViewCacheDedupesReannouncement: a PDQ re-send of an episode the
// cache already holds — possible under concurrent insertion — must merge
// into that episode, and a stale (smaller) re-sent Disappear must not
// shrink the cached deadline.
func TestViewCacheDedupesReannouncement(t *testing.T) {
	v := NewViewCache()
	v.Apply([]Result{{ID: 1, Appear: 0, Disappear: 20}})
	cached(t, v, 1)

	// Re-announcement of the same episode with a stale, earlier deadline.
	v.Apply([]Result{{ID: 1, Appear: 5, Disappear: 12}})
	if r := cached(t, v, 1); r.Appear != 0 || r.Disappear != 20 {
		t.Errorf("merged episode = %+v, want [0,20] preserved", r)
	}
	// Deadline must still be 20: advancing past the stale deadline keeps
	// the object, advancing to the real one evicts it.
	if gone := v.Advance(12); len(gone) != 0 {
		t.Errorf("stale re-send shrank the deadline: evicted %v", gone)
	}
	if gone := v.Advance(20); len(gone) != 1 {
		t.Errorf("object not discarded at its disappearance time: %v", gone)
	}
}

// TestViewCacheExtendingReannouncement: a re-send that extends the open
// episode (the object stays visible longer than first computed) merges
// into it rather than opening a second episode.
func TestViewCacheExtendingReannouncement(t *testing.T) {
	v := NewViewCache()
	v.Apply([]Result{{ID: 7, Appear: 0, Disappear: 10}})
	v.Apply([]Result{{ID: 7, Appear: 8, Disappear: 25}})
	if r := cached(t, v, 7); r.Appear != 0 || r.Disappear != 25 {
		t.Errorf("merged episode = %+v, want [0,25]", r)
	}
}

// TestViewCacheReentryIsNewEpisode: after the object leaves the view
// (evicted at its disappearance time), a later announcement is a fresh
// visibility episode.
func TestViewCacheReentryIsNewEpisode(t *testing.T) {
	v := NewViewCache()
	v.Apply([]Result{{ID: 3, Appear: 0, Disappear: 10}})
	if gone := v.Advance(10); len(gone) != 1 {
		t.Fatalf("advance to deadline evicted %d objects", len(gone))
	}
	v.Apply([]Result{{ID: 3, Appear: 30, Disappear: 40}})
	if r := cached(t, v, 3); r.Appear != 30 || r.Disappear != 40 {
		t.Errorf("re-entry episode = %+v, want [30,40]", r)
	}

	// Even without eviction in between, an episode starting strictly
	// after the cached one ends is a new episode (replacing, not merging).
	v.Apply([]Result{{ID: 3, Appear: 50, Disappear: 60}})
	if r := cached(t, v, 3); r.Appear != 50 || r.Disappear != 60 {
		t.Errorf("replaced episode = %+v, want [50,60]", r)
	}
	if gone := v.Advance(40); len(gone) != 0 {
		t.Errorf("the replaced episode's deadline survived: evicted %v", gone)
	}
}
