package gcs

import (
	"iter"

	"github.com/replobj/replobj/internal/ring"
)

// window is the retransmission log: ordered messages by sequence number,
// the i-th element of q standing for number lo+i, so that retaining one is
// a store, looking one up an index and truncating a pop per number dropped.
// An element with Seq 0 is a gap (sequence numbers start at 1, and so must
// lo); hi is one past the highest number held.
type window struct {
	q  ring.Queue[Ordered]
	lo uint64
	n  int // messages held
}

func (w *window) hi() uint64 { return w.lo + uint64(w.q.Len()) }

func (w *window) get(seq uint64) (Ordered, bool) {
	if seq < w.lo || seq >= w.hi() {
		return Ordered{}, false
	}
	o := *w.q.At(int(seq - w.lo))
	return o, o.Seq == seq
}

// put stores o unless it lies below lo. The queue grows to span [lo, o.Seq]:
// the caller bounds how far above hi that may be.
func (w *window) put(o Ordered) {
	if o.Seq < w.lo {
		return
	}
	for w.hi() <= o.Seq {
		w.q.Push(Ordered{})
	}
	slot := w.q.At(int(o.Seq - w.lo))
	if slot.Seq == 0 {
		w.n++
	}
	*slot = o
}

// dropBelow forgets every message below seq and reports how many it held.
func (w *window) dropBelow(seq uint64) (removed int) {
	for ; w.lo < seq && w.q.Len() > 0; w.lo++ {
		if o, _ := w.q.Pop(); o.Seq != 0 {
			removed++
		}
	}
	w.lo = max(w.lo, seq)
	w.n -= removed
	return removed
}

// all iterates over the held messages in sequence order.
func (w *window) all() iter.Seq[Ordered] {
	return func(yield func(Ordered) bool) {
		for o := range w.q.All() {
			if o.Seq != 0 && !yield(o) {
				return
			}
		}
	}
}
