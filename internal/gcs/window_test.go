package gcs

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/replobj/replobj/internal/wire"
)

func seqs(w *window) (out []uint64) {
	for o := range w.all() {
		out = append(out, o.Seq)
	}
	return out
}

// TestWindowKeepsGapsAcrossGrowthAndTruncation exercises the log's buffer
// on its own: out-of-order stores, lookups next to gaps, growth, truncation that counts what it drops.
func TestWindowKeepsGapsAcrossGrowthAndTruncation(t *testing.T) {
	w := window{lo: 1}
	for _, s := range []uint64{3, 1, 9, 2, 9, 40} { // 9 twice, 40 forces two doublings
		w.put(Ordered{Seq: s, ID: fmt.Sprint("m", s)})
	}
	if got := seqs(&w); !reflect.DeepEqual(got, []uint64{1, 2, 3, 9, 40}) || w.n != 5 || w.hi() != 41 {
		t.Fatalf("holds %v (n %d, hi %d), want [1 2 3 9 40]", got, w.n, w.hi())
	}
	if o, ok := w.get(9); !ok || o.ID != "m9" {
		t.Errorf("get(9) = %+v, %v", o, ok)
	}
	for _, gap := range []uint64{0, 4, 8, 10, 41, 1 << 40} {
		if o, ok := w.get(gap); ok {
			t.Errorf("get(%d) = %+v in a gap", gap, o)
		}
	}
	if removed := w.dropBelow(9); removed != 3 || w.n != 2 || w.lo != 9 {
		t.Errorf("dropBelow(9) removed %d, leaves n %d lo %d; want 3, 2, 9", removed, w.n, w.lo)
	}
	w.put(Ordered{Seq: 5}) // below the floor: not held
	if got := seqs(&w); !reflect.DeepEqual(got, []uint64{9, 40}) {
		t.Errorf("after truncation holds %v, want [9 40]", got)
	}
	if removed := w.dropBelow(100); removed != 2 || w.n != 0 || w.lo != 100 || w.hi() != 100 {
		t.Errorf("dropBelow(100) removed %d, leaves n %d [%d, %d)", removed, w.n, w.lo, w.hi())
	}
	w.put(Ordered{Seq: 100})
	if got := seqs(&w); !reflect.DeepEqual(got, []uint64{100}) {
		t.Errorf("emptied window holds %v after a put, want [100]", got)
	}
}

// TestOrderedAheadOfTheFrontierWaitsInTheLog: messages that arrive above the
// delivery frontier are held by the log itself and delivered, in order, when
// the gap closes; one further ahead than the log would retain only tells of
// the gap and is not held.
func TestOrderedAheadOfTheFrontierWaitsInTheLog(t *testing.T) {
	h := newHarness(3, false)
	h.run(func() {
		m := h.members[1]
		m.cfg.LogRetain = 8
		ordered := func(seq uint64) *Ordered {
			return &Ordered{Group: h.group, Seq: seq, ID: fmt.Sprint("m", seq), Origin: "client/c1", Payload: appMsg{Body: "x"}}
		}
		for _, seq := range []uint64{3, 2, 100} {
			m.Handle(h.ids[0], ordered(seq))
		}
		if d, ok, timedOut := m.DeliverTimeout(10 * time.Millisecond); ok && !timedOut {
			t.Fatalf("delivered %+v across a gap", d)
		}
		if got := m.LogLen(); got != 2 {
			t.Errorf("log holds %d messages, want 2 (seq 100 is too far ahead to keep)", got)
		}
		m.Handle(h.ids[0], ordered(1))
		if got := ids(take(t, h.rt, m, 3)); !reflect.DeepEqual(got, []string{"m1", "m2", "m3"}) {
			t.Errorf("delivered %v, want [m1 m2 m3]", got)
		}
	})
}

// TestLogKeepsLogRetainBelowTheFrontier: Config.LogRetain means what its doc
// says. Without a checkpoint the log holds that many delivered messages — not
// up to twice as many — plus whatever waits above the frontier.
func TestLogKeepsLogRetainBelowTheFrontier(t *testing.T) {
	const retain = 8
	h := newHarness(3, false)
	h.run(func() {
		m := h.members[1]
		m.cfg.LogRetain = retain
		feed := func(seqs ...uint64) {
			for _, seq := range seqs {
				m.Handle(h.ids[0], &Ordered{Group: h.group, Seq: seq, ID: fmt.Sprint("m", seq), Origin: "client/c1", Payload: appMsg{Body: "x"}})
			}
		}
		expect := func(when string, lo uint64, n int) {
			t.Helper()
			h.rt.Lock()
			gotLo := m.log.lo
			h.rt.Unlock()
			if got := m.LogLen(); got != n || gotLo != lo {
				t.Errorf("%s: log holds %d messages from seq %d up, want %d from %d", when, got, gotLo, n, lo)
			}
		}
		for seq := uint64(1); seq <= 3*retain; seq++ {
			feed(seq)
		}
		take(t, h.rt, m, 3*retain)
		expect("after 3×LogRetain deliveries", 2*retain+1, retain)
		feed(3*retain + 2)
		expect("with one message above a gap", 2*retain+1, retain+1)
		feed(3*retain + 1)
		take(t, h.rt, m, 2)
		expect("after the gap is filled", 2*retain+3, retain)
	})
}

// TestIDTableForgetsOldestFirst: the id table tracks maxTrackedIDs ids. A
// duplicate of one it tracks is reported with the position it was ordered
// at; one it has forgotten is no duplicate any more and is ordered again.
func TestIDTableForgetsOldestFirst(t *testing.T) {
	var reported []uint64
	h := newHarnessCfg(1, false, func(c *Config) {
		c.DuplicateSubmit = func(_ Submit, seq uint64) { reported = append(reported, seq) }
	})
	h.run(func() {
		cl := h.net.Endpoint(wire.ClientID("c1"))
		defer cl.Close()
		m := h.members[0]
		h.submitFromClient(cl, "first", "x")
		h.submitFromClient(cl, "second", "x")
		take(t, h.rt, m, 2)
		h.rt.Lock()
		for i := 0; i < maxTrackedIDs-1; i++ {
			m.markOrderedLocked(key{id: fmt.Sprint("filler", i)}, uint64(1000+i))
		}
		tracked, queued := len(m.ids), m.idOrder.Len()
		_, firstKept := m.ids["first"]
		h.rt.Unlock()
		if tracked != maxTrackedIDs || queued != maxTrackedIDs || firstKept {
			t.Errorf("table tracks %d ids (%d queued, oldest kept: %v), want %d without the oldest", tracked, queued, firstKept, maxTrackedIDs)
		}
		h.submitFromClient(cl, "second", "x")
		h.submitFromClient(cl, "first", "x")
		if got := ids(take(t, h.rt, m, 1)); !reflect.DeepEqual(got, []string{"first"}) {
			t.Errorf("delivered %v, want the forgotten id ordered again", got)
		}
		if !reflect.DeepEqual(reported, []uint64{2}) {
			t.Errorf("duplicates reported at %v, want [2]: the tracked id, at its position", reported)
		}
	})
}

// TestSubmitQueueDoesNotOutgrowTheCache: the arrival-order queue behind the
// submit cache sheds the ids that have been ordered since, instead of
// carrying maxTrackedIDs of them around (and walking them every FD tick).
func TestSubmitQueueDoesNotOutgrowTheCache(t *testing.T) {
	h := newHarness(3, false)
	h.run(func() {
		cl := h.net.Endpoint(wire.ClientID("c1"))
		defer cl.Close()
		const n = 50
		for i := 0; i < n; i++ {
			h.submitFromClient(cl, fmt.Sprintf("m%02d", i), "x")
			for _, m := range h.members {
				take(t, h.rt, m, 1)
			}
		}
		h.rt.Lock()
		defer h.rt.Unlock()
		for i, m := range h.members {
			if cached, queued := len(m.submitCache), m.cacheOrder.Len(); cached != 0 || queued > 1 {
				t.Errorf("member %d: %d submits cached, %d ids queued after %d ordered submits", i, cached, queued, n)
			}
		}
	})
}
