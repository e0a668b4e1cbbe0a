package core

// queueItem is the pointer to a queue item type T, whose less compares two
// items where they lie.
type queueItem[T any] interface {
	*T
	less(*T) bool
}

// queue is a binary min-heap under its items' less, typed so that pushing
// and popping box nothing. It makes container/heap's comparisons in
// container/heap's order, so items that compare equal pop in the same order
// as there, but it moves the hole, not the item: an item is written once,
// where it comes to rest, instead of swapped at every level.
//
// less is called through the type's dictionary, so a pointer it is handed
// escapes: it is only ever handed pointers into the slice. An item on the
// move waits in a slot of the slice's array, never in a local, or every
// push and pop would allocate it.
type queue[T any, P queueItem[T]] []T

func (h *queue[T, P]) push(it T) {
	q := append(*h, it, it) // the second copy waits past the end
	q, x := q[:len(q)-1], P(&q[len(q)-1])
	*h = q
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !x.less(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = it
}

// pop removes and returns the least item of a non-empty queue.
func (h *queue[T, P]) pop() T {
	q := *h
	n := len(q) - 1
	top, last := q[0], P(&q[n]) // last waits past the new end
	*h = q[:n]
	i := 0
	for {
		c := 2*i + 1 // the lesser child, if any
		if c >= n {
			break
		}
		if r := c + 1; r < n && P(&q[r]).less(&q[c]) {
			c = r
		}
		if !P(&q[c]).less(last) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = *last
	return top
}
