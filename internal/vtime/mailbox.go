package vtime

import (
	"time"

	"github.com/replobj/replobj/internal/ring"
)

// Mailbox is an unbounded FIFO queue integrated with a Runtime: Get parks
// the calling tracked goroutine until an item arrives, so the virtual kernel
// correctly accounts for the blocked reader. It is the building block for
// message queues throughout the middleware.
//
// All methods acquire the runtime lock internally; call them without it.
//
// A mailbox in steady state allocates nothing: items live in a ring, and
// the parkers blocked readers wait on are recycled through a free list (a
// reader holds one only while it is blocked, so the list never grows past
// the number of goroutines that read the mailbox at once).
type Mailbox[T any] struct {
	rt      Runtime
	getName string // diagnostic name of every reader parker
	items   ring.Queue[T]
	// Blocked readers, oldest first, linked through Parker.next. Whoever
	// wakes a reader (Put, Close) unlinks its parker first; a reader that
	// times out unlinks its own.
	waitHead, waitTail *Parker
	free               *Parker // idle parkers, linked through Parker.next
	closed             bool
}

// NewMailbox returns an empty mailbox on rt. The name is used in diagnostic
// dumps for parked readers.
func NewMailbox[T any](rt Runtime, name string) *Mailbox[T] {
	return &Mailbox[T]{rt: rt, getName: name + "/get"}
}

// Put appends v and wakes the oldest blocked reader, if any. Putting to a
// closed mailbox is a silent no-op (late messages after shutdown).
func (m *Mailbox[T]) Put(v T) {
	m.rt.Lock()
	m.PutLocked(v)
	m.rt.Unlock()
}

// PutLocked is Put for callers that already hold the runtime lock. It
// exists so a state machine can atomically update its state and emit
// deliveries in a guaranteed order: two goroutines that each (under the
// lock) advance the state and enqueue the corresponding items can never
// interleave their enqueues out of order.
func (m *Mailbox[T]) PutLocked(v T) {
	if m.closed {
		return
	}
	m.items.Push(v)
	if p := m.waitHead; p != nil {
		m.removeWaiterLocked(p)
		m.rt.Unpark(p)
	}
}

// Get blocks until an item is available or the mailbox is closed. The second
// result is false if the mailbox was closed and drained.
func (m *Mailbox[T]) Get() (T, bool) {
	v, ok, _ := m.get(0)
	return v, ok
}

// GetTimeout is Get with a deadline; the third result reports a timeout.
func (m *Mailbox[T]) GetTimeout(d time.Duration) (v T, ok bool, timedOut bool) {
	return m.get(d)
}

func (m *Mailbox[T]) get(d time.Duration) (v T, ok bool, timedOut bool) {
	m.rt.Lock()
	defer m.rt.Unlock()
	for m.items.Len() == 0 {
		if m.closed {
			return v, false, false
		}
		p := m.free
		if p != nil {
			m.free, p.next = p.next, nil
		} else {
			p = NewParker(m.getName)
		}
		if m.waitTail == nil {
			m.waitHead = p
		} else {
			m.waitTail.next = p
		}
		m.waitTail = p
		timedOut = m.rt.ParkTimeout(p, d)
		if timedOut && !m.removeWaiterLocked(p) {
			// The deadline fired, but before this goroutine was back under
			// the lock a Put or Close picked the parker and left its wakeup
			// as a permit: the reader was woken after all.
			p.permit = false
			timedOut = false
		}
		// The parker is unlinked and holds neither a permit nor a wake
		// token: the next blocked reader can have it.
		p.next, m.free = m.free, p
		if timedOut {
			return v, false, true
		}
	}
	v, _ = m.items.Pop()
	return v, true, false
}

// TryGet pops an item without blocking.
func (m *Mailbox[T]) TryGet() (T, bool) {
	m.rt.Lock()
	defer m.rt.Unlock()
	return m.items.Pop()
}

// Len returns the number of queued items.
func (m *Mailbox[T]) Len() int {
	m.rt.Lock()
	defer m.rt.Unlock()
	return m.items.Len()
}

// Close wakes all blocked readers; subsequent Gets return ok=false once the
// queue is drained, and Puts are dropped.
func (m *Mailbox[T]) Close() {
	m.rt.Lock()
	defer m.rt.Unlock()
	if m.closed {
		return
	}
	m.closed = true
	for p := m.waitHead; p != nil; p = m.waitHead {
		m.removeWaiterLocked(p)
		m.rt.Unpark(p)
	}
}

// removeWaiterLocked unlinks p from the waiter list, reporting whether it
// was on it.
func (m *Mailbox[T]) removeWaiterLocked(p *Parker) bool {
	var prev *Parker
	for w := m.waitHead; w != nil; prev, w = w, w.next {
		if w != p {
			continue
		}
		if prev == nil {
			m.waitHead = p.next
		} else {
			prev.next = p.next
		}
		if m.waitTail == p {
			m.waitTail = prev
		}
		p.next = nil
		return true
	}
	return false
}
