package core

import (
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"dynq/internal/geom"
	"dynq/internal/rtree"
	"dynq/internal/stats"
)

// A live session that does not fetch holds at most inboxCap notifications:
// 256 such sessions, through 20 000 inserts, grow the heap by less than
// 256 × inboxCap notifications take. (Unbounded, each kept all 20 000.)
// Every one of them is left to rebuild from the root at its next fetch.
func TestPDQInboxBounded(t *testing.T) {
	tree, _ := buildIndex(t, rtree.DefaultConfig(), 100, 100, 43)
	tr := straightTraj(t, 10, 40, 20, 0.8, 10, 90)
	var c stats.Counters
	sessions := make([]*PDQ, 256)
	for i := range sessions {
		p, err := NewPDQ(tree, tr, PDQOptions{LiveUpdates: true}, &c)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		sessions[i] = p
	}
	r := rand.New(rand.NewSource(44))
	inserts := make([]rtree.LeafEntry, 20_000)
	for i := range inserts {
		inserts[i] = randomEntry(r, rtree.ObjectID(100_000+i))
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, e := range inserts {
		if err := tree.Insert(e.ID, e.Seg); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	bound := int64(len(sessions)*inboxCap) * int64(unsafe.Sizeof(rtree.Update{}))
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > bound {
		t.Errorf("%d idle sessions through %d inserts grew the heap by %d MB, bound %d MB", len(sessions), len(inserts), grown>>20, bound>>20)
	}
	for i, p := range sessions {
		p.inboxMu.Lock()
		held, rebuild := len(p.inbox), p.rebuild
		p.inboxMu.Unlock()
		if held > inboxCap || !rebuild {
			t.Fatalf("session %d holds %d notifications, rebuild pending %v", i, held, rebuild)
		}
	}
	if _, err := sessions[0].Drain(10, 20); err != nil {
		t.Fatal(err)
	}
}

// A session that fell further behind than its inbox holds catches up from
// the root: frame by frame, the episodes it has delivered that are visible
// in the frame are exactly those a scan of every indexed segment finds —
// the ones inserted while it was behind included — and it never delivers
// an episode twice.
func TestPDQCatchesUpAfterInboxOverflow(t *testing.T) {
	tree, entries := buildIndex(t, rtree.DefaultConfig(), 300, 100, 41)
	tr := straightTraj(t, 10, 40, 20, 0.8, 10, 90)
	var c stats.Counters
	pdq, err := NewPDQ(tree, tr, PDQOptions{LiveUpdates: true}, &c)
	if err != nil {
		t.Fatal(err)
	}
	defer pdq.Close()
	want := bruteEpisodes(entries, tr)
	delivered := map[episodeKey]geom.Interval{}
	r := rand.New(rand.NewSource(42))
	late := 0 // inserted episodes visible at once in the first frame after the overflow
	for lo := 10.0; lo < 90; lo += 0.5 {
		hi := lo + 0.5
		if lo == 40 {
			for i := 0; i < inboxCap+500; i++ {
				e := randomEntry(r, rtree.ObjectID(100_000+i))
				if err := tree.Insert(e.ID, e.Seg); err != nil {
					t.Fatal(err)
				}
				entries = append(entries, e)
			}
			want = bruteEpisodes(entries, tr)
			for k, iv := range want {
				if k.id >= 100_000 && iv.Lo < lo && iv.Hi >= lo {
					late++
				}
			}
			pdq.inboxMu.Lock()
			overflowed := pdq.rebuild
			pdq.inboxMu.Unlock()
			if !overflowed {
				t.Fatal("the inserts did not overflow the inbox")
			}
		}
		rs, err := pdq.Drain(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range rs {
			k := episodeKey{id: res.ID, segStart: res.Seg.T.Lo, appear: res.Appear}
			if _, twice := delivered[k]; twice {
				t.Fatalf("frame [%g,%g]: episode %+v delivered twice", lo, hi, k)
			}
			delivered[k] = geom.Interval{Lo: res.Appear, Hi: res.Disappear}
		}
		for k, iv := range want {
			if _, ok := delivered[k]; !ok && iv.Lo <= hi && iv.Hi >= lo {
				t.Fatalf("frame [%g,%g]: episode %+v (%v) visible but never delivered", lo, hi, k, iv)
			}
		}
		for k, iv := range delivered {
			if _, ok := want[k]; !ok && iv.Lo <= hi && iv.Hi >= lo {
				t.Fatalf("frame [%g,%g]: delivered episode %+v (%v) is not in the index", lo, hi, k, iv)
			}
		}
	}
	if late == 0 {
		t.Fatal("no inserted episode was under way when the session caught up: the test shows nothing")
	}
}
