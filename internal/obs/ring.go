package obs

import "time"

// recordRing is a fixed-capacity ring of records numbered 0, 1, 2, … in
// the order they were added; once full, each add overwrites the oldest.
// It backs the tracer, the slow log, the journal and the runtime
// collector. It has no lock of its own: each owner guards its ring with
// its own mutex.
type recordRing[T any] struct {
	buf  []T
	next uint64 // records ever added; also the next record's number
}

// newRecordRing creates a ring keeping the last capacity records
// (minimum 1).
func newRecordRing[T any](capacity int) recordRing[T] {
	return recordRing[T]{buf: make([]T, max(capacity, 1))}
}

// add claims the slot of the next record, overwriting the oldest when
// the ring is full, and returns the record's number with the slot to
// fill.
func (r *recordRing[T]) add() (uint64, *T) {
	seq := r.next
	r.next++
	return seq, &r.buf[seq%uint64(len(r.buf))]
}

// len reports the number of records buffered.
func (r *recordRing[T]) len() int {
	return int(min(r.next, uint64(len(r.buf))))
}

// at returns the buffered record numbered seq, which must lie in
// [next-len, next).
func (r *recordRing[T]) at(seq uint64) *T {
	return &r.buf[seq%uint64(len(r.buf))]
}

// since returns copies of the buffered records numbered seq or later,
// oldest first, in a slice of exactly that length (empty, never nil).
func (r *recordRing[T]) since(seq uint64) []T {
	seq = min(max(seq, r.next-uint64(r.len())), r.next)
	out := make([]T, 0, r.next-seq)
	for ; seq < r.next; seq++ {
		out = append(out, *r.at(seq))
	}
	return out
}

// newest returns copies of up to limit (every one when limit <= 0)
// buffered records that keep accepts (every one when keep is nil),
// newest first, or nil when there are none. It counts before it copies,
// so the answer is allocated once, at its length.
func (r *recordRing[T]) newest(limit int, keep func(*T) bool) []T {
	if limit <= 0 {
		limit = r.len()
	}
	oldest := r.next - uint64(r.len())
	n := 0
	for seq := r.next; seq > oldest && n < limit; seq-- {
		if keep == nil || keep(r.at(seq-1)) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]T, 0, n)
	for seq := r.next; len(out) < n; seq-- {
		if e := r.at(seq - 1); keep == nil || keep(e) {
			out = append(out, *e)
		}
	}
	return out
}

// slotRing is a ring of time slots, each holding what was recorded during
// one interval, for answers over a rolling window ("the last minute").
// Rotation is lazy: every access first advances the ring to the interval
// containing the caller's clock reading and resets the slots it passes,
// so an idle ring costs nothing. It backs WindowedHistogram (bucket
// counts per slot) and SLOTracker (request outcomes per slot). It has no
// lock of its own.
type slotRing[T any, P slot[T]] struct {
	interval time.Duration
	starts   []time.Time // each slot's interval start; zero while empty or expired
	slots    []T
	cur      int // the slot receiving records
}

// slot is what a slotRing holds: a payload that can clear itself in
// place, so rotation does not allocate.
type slot[T any] interface {
	*T
	reset()
}

// newSlotRing creates a ring of interval-wide slots made by newSlot,
// enough to answer windows up to span plus the partially filled current
// slot.
func newSlotRing[T any, P slot[T]](interval, span time.Duration, newSlot func() T) slotRing[T, P] {
	n := int(span/interval) + 1
	r := slotRing[T, P]{interval: interval, starts: make([]time.Time, n), slots: make([]T, n)}
	for i := range r.slots {
		r.slots[i] = newSlot()
	}
	return r
}

// rotate advances the ring so the current slot covers the interval
// containing now. A gap longer than the whole ring clears every slot in
// one pass. A clock that steps back leaves the ring as it is.
func (r *slotRing[T, P]) rotate(now time.Time) {
	if r.starts[r.cur].IsZero() {
		r.starts[r.cur] = now.Truncate(r.interval)
		return
	}
	steps := int(now.Sub(r.starts[r.cur]) / r.interval)
	if steps <= 0 {
		return
	}
	if steps >= len(r.slots) {
		for i := range r.slots {
			P(&r.slots[i]).reset()
			r.starts[i] = time.Time{}
		}
		r.cur = 0
		r.starts[0] = now.Truncate(r.interval)
		return
	}
	for ; steps > 0; steps-- {
		start := r.starts[r.cur].Add(r.interval)
		r.cur = (r.cur + 1) % len(r.slots)
		P(&r.slots[r.cur]).reset()
		r.starts[r.cur] = start
	}
}

// current advances the ring to now and returns the slot receiving
// records.
func (r *slotRing[T, P]) current(now time.Time) *T {
	r.rotate(now)
	return &r.slots[r.cur]
}

// each advances the ring to now and calls fn on every slot whose
// interval overlaps the last window before now.
func (r *slotRing[T, P]) each(now time.Time, window time.Duration, fn func(*T)) {
	r.rotate(now)
	cutoff := now.Add(-window)
	for i, start := range r.starts {
		// A slot covers [start, start+interval); include it when any part
		// of that interval lies inside (cutoff, now].
		if !start.IsZero() && start.Add(r.interval).After(cutoff) {
			fn(&r.slots[i])
		}
	}
}
