package cache

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestCacheBasic(t *testing.T) {
	c := New[string]()
	if c.Len() != 0 {
		t.Error("new cache should be empty")
	}
	c.Put(1, "a", 10)
	c.Put(2, "b", 5)
	c.Put(3, "c", 20)
	if c.Len() != 3 {
		t.Fatalf("len = %d", c.Len())
	}
	if v, ok := c.Get(2); !ok || v != "b" {
		t.Errorf("get 2 = %q %v", v, ok)
	}
	// Advance(5): discarded at its disappearance time — b goes.
	ev := c.Advance(5)
	if len(ev) != 1 || ev[0] != "b" {
		t.Errorf("evicted = %v", ev)
	}
	if _, ok := c.Get(2); ok {
		t.Error("evicted object still retrievable")
	}
	// Advance far: everything goes, in deadline order.
	ev = c.Advance(100)
	if len(ev) != 2 || ev[0] != "a" || ev[1] != "c" {
		t.Errorf("final eviction = %v", ev)
	}
	if c.Len() != 0 {
		t.Error("cache should be empty")
	}
}

// TestCacheAdvanceBoundary pins the paper's Section 4.1 semantics: an
// object whose disappearance time equals the frame timestamp is kept
// until that frame and discarded by Advance at it.
func TestCacheAdvanceBoundary(t *testing.T) {
	c := New[string]()
	c.Put(1, "edge", 30)

	if ev := c.Advance(29.5); len(ev) != 0 {
		t.Fatalf("Advance(29.5) evicted %v before its deadline", ev)
	}
	ev := c.Advance(30)
	if len(ev) != 1 || ev[0] != "edge" {
		t.Fatalf("Advance(30) = %v, want the object discarded at its disappearance time", ev)
	}
	if c.Len() != 0 {
		t.Fatalf("len = %d after at-deadline discard", c.Len())
	}
}

func TestCacheUpsertExtendsDeadline(t *testing.T) {
	c := New[int]()
	c.Put(7, 1, 5)
	c.Put(7, 2, 50) // re-entered the view with a later deadline
	if c.Len() != 1 {
		t.Fatalf("len = %d", c.Len())
	}
	if ev := c.Advance(10); len(ev) != 0 {
		t.Errorf("refreshed object evicted early: %v", ev)
	}
	if v, _ := c.Get(7); v != 2 {
		t.Errorf("value not replaced: %d", v)
	}
	// Shrinking the deadline also works.
	c.Put(7, 3, 1)
	if ev := c.Advance(2); len(ev) != 1 || ev[0] != 3 {
		t.Errorf("shrunk-deadline eviction = %v", ev)
	}
}

func TestCacheValues(t *testing.T) {
	c := New[int]()
	for i := 0; i < 5; i++ {
		c.Put(uint64(i), i*i, float64(i))
	}
	vs := c.Values()
	sort.Ints(vs)
	if len(vs) != 5 || vs[4] != 16 {
		t.Errorf("values = %v", vs)
	}
}

// Property: the cache behaves like a map with deadlines — after any
// sequence of puts/advances, membership matches the model and evictions
// come out in deadline order.
func TestCacheModelProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := New[float64]()
		model := map[uint64]float64{} // id → deadline
		now := 0.0
		for step := 0; step < 200; step++ {
			if r.Intn(3) == 0 {
				// Advance time.
				now += r.Float64() * 3
				ev := c.Advance(now)
				// Model eviction.
				expect := 0
				for id, dl := range model {
					if dl <= now {
						delete(model, id)
						expect++
					}
				}
				if len(ev) != expect {
					return false
				}
				// Evictions sorted by deadline.
				if !sort.Float64sAreSorted(ev) {
					return false
				}
			} else {
				id := uint64(r.Intn(20))
				dl := now + r.Float64()*10
				c.Put(id, dl, dl)
				model[id] = dl
			}
			if c.Len() != len(model) {
				return false
			}
		}
		for id, dl := range model {
			v, ok := c.Get(id)
			if !ok || v != dl {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
