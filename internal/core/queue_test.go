package core

import (
	"container/heap"
	"math/rand"
	"testing"

	"dynq/internal/geom"
	"dynq/internal/pager"
	"dynq/internal/rtree"
)

// refQueue is container/heap over the same items: the reference pop order.
type refQueue[T any, P queueItem[T]] []T

func (h refQueue[T, P]) Len() int           { return len(h) }
func (h refQueue[T, P]) Less(i, j int) bool { return P(&h[i]).less(&h[j]) }
func (h refQueue[T, P]) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refQueue[T, P]) Push(x any)        { *h = append(*h, x.(T)) }
func (h *refQueue[T, P]) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// The queue pops what container/heap pops, item for item, under random
// interleavings of pushes and pops whose priorities mostly tie: items that
// compare equal but differ (a KNN slot, a PDQ seq drawn from few values)
// show that the sift order is container/heap's too.
func TestQueueMatchesContainerHeap(t *testing.T) {
	r := rand.New(rand.NewSource(38))
	checkQueue[knnItem](t, r, func() knnItem {
		return knnItem{
			dist:  float64(r.Intn(3)),
			obj:   rtree.ObjectID(r.Intn(3)),
			node:  pager.PageID(r.Intn(3)),
			slot:  int32(r.Intn(1000)),
			isObj: r.Intn(2) == 0,
		}
	})
	checkQueue[pdqItem](t, r, func() pdqItem {
		lo := float64(r.Intn(3))
		return pdqItem{
			key: pdqKey{
				iv:       geom.Interval{Lo: lo, Hi: lo + float64(r.Intn(2))},
				obj:      rtree.ObjectID(r.Intn(2)),
				segStart: float64(r.Intn(2)),
				node:     pager.PageID(r.Intn(2)),
				isObj:    r.Intn(2) == 0,
			},
			seq:  uint64(r.Intn(2)),
			slot: int32(r.Intn(1000)),
		}
	})
}

func checkQueue[T comparable, P queueItem[T]](t *testing.T, r *rand.Rand, gen func() T) {
	t.Helper()
	for round := 0; round < 100; round++ {
		var q queue[T, P]
		var ref refQueue[T, P]
		for op := 0; op < 400 || len(q) > 0; op++ {
			if op < 400 && (len(q) == 0 || r.Intn(5) < 3) {
				it := gen()
				q.push(it)
				heap.Push(&ref, it)
				continue
			}
			if got, want := q.pop(), heap.Pop(&ref).(T); got != want {
				t.Fatalf("round %d op %d: popped %+v, container/heap pops %+v", round, op, got, want)
			}
		}
		if ref.Len() != 0 {
			t.Fatalf("round %d: the reference still holds %d items", round, ref.Len())
		}
	}

	q := make(queue[T, P], 0, 8)
	a, b := gen(), gen()
	if n := testing.AllocsPerRun(100, func() {
		q.push(a)
		q.push(b)
		q.pop()
		q.pop()
	}); n != 0 {
		t.Errorf("%T: a push and a pop within capacity allocate %v times", a, n)
	}
}
