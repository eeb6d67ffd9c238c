// Package ring provides the FIFO queue the middleware's hot paths share:
// mailboxes, the sequential scheduler's run queue and the bounded
// id-tracking windows of the group member and the replica. A slice used as
// a FIFO (xs = xs[1:] to pop, append to push) gives up the popped slot's
// capacity, so a queue in steady state reallocates its backing array over
// and over; a ring reuses it.
package ring

import "iter"

// Queue is an unbounded FIFO over a circular buffer. The zero value is an
// empty queue. It is not safe for concurrent use; owners guard it with the
// lock that guards the rest of their state.
type Queue[T any] struct {
	buf  []T // len(buf) is zero or a power of two
	head int // index of the oldest element
	n    int
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return q.n }

// Push appends v at the tail, doubling the buffer when it is full.
func (q *Queue[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Pop removes and returns the oldest element; ok is false on an empty
// queue. The vacated slot is zeroed, so the queue keeps no reference to a
// popped element (a mailbox slot that held a snapshot-sized message must
// not pin it until the ring wraps around).
func (q *Queue[T]) Pop() (v T, ok bool) {
	if q.n == 0 {
		return v, false
	}
	var zero T
	v, q.buf[q.head] = q.buf[q.head], zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v, true
}

// At returns the i-th oldest element, 0 <= i < Len, in place: the pointer is
// good until the next Push or Pop.
func (q *Queue[T]) At(i int) *T { return &q.buf[(q.head+i)&(len(q.buf)-1)] }

// All iterates over the queued elements, oldest first, without removing
// them. Pushing or popping inside the loop is allowed: the iteration visits
// positions 0, 1, 2, … of the queue as it is when each is reached.
func (q *Queue[T]) All() iter.Seq[T] {
	return func(yield func(T) bool) {
		for i := 0; i < q.n; i++ {
			if !yield(q.buf[(q.head+i)&(len(q.buf)-1)]) {
				return
			}
		}
	}
}

func (q *Queue[T]) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = 8
	}
	buf := make([]T, size)
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf, q.head = buf, 0
}
