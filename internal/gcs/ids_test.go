package gcs

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/replobj/replobj/internal/wire"
)

// reports records the positions DuplicateSubmit reports, per member.
type reports struct {
	mu  sync.Mutex
	seq map[wire.NodeID][]uint64
}

func (r *reports) hook(c *Config) {
	self := c.Self
	c.DuplicateSubmit = func(_ Submit, seq uint64) {
		r.mu.Lock()
		defer r.mu.Unlock()
		if r.seq == nil {
			r.seq = make(map[wire.NodeID][]uint64)
		}
		r.seq[self] = append(r.seq[self], seq)
	}
}

func (r *reports) of(id wire.NodeID) []uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]uint64(nil), r.seq[id]...)
}

// TestNumberedCallsAgainstTheRow: a client's calls are judged by its row, the
// highest call each member has seen ordered. Above the row a call is fresh;
// the row's own call from its client again is a retransmission, reported at
// its position; a call below the row is superseded — reported with no
// position, never ordered, no log re-broadcast; a member's copy of any of
// them is settled.
func TestNumberedCallsAgainstTheRow(t *testing.T) {
	t.Run("plain group", func(t *testing.T) {
		var rep reports
		var fr frames
		h := newHarnessCfg(3, false, func(c *Config) { rep.hook(c); fr.hook(c) })
		h.run(func() {
			cl := h.net.Endpoint(wire.ClientID("c1"))
			defer cl.Close()
			seqr := h.ids[0]
			h.submitCall(cl, 1, "x") // a first request goes to every member
			for _, m := range h.members {
				if got := ids(take(t, h.rt, m, 1)); got[0] != "client/c1#1" {
					t.Fatalf("delivered %v, want [client/c1#1]", got)
				}
			}
			h.rt.Sleep(10 * time.Millisecond)
			if hi := fr.count(seqr, "Hint", "client/c1#1"); hi != 2 {
				t.Errorf("sequencer answered the followers' relays with %d Hints, want 2", hi)
			}
			h.submitCall(cl, 1, "x") // the row's own call again
			h.rt.Sleep(10 * time.Millisecond)
			for _, id := range h.ids {
				if got := rep.of(id); !reflect.DeepEqual(got, []uint64{1}) {
					t.Errorf("%s reported the retransmission at %v, want [1]", id, got)
				}
			}
			cl.Send(seqr, &Submit{Group: h.group, Origin: cl.ID(), Call: 2, Payload: appMsg{Body: "y"}})
			for _, m := range h.members {
				take(t, h.rt, m, 1)
			}
			h.rt.Sleep(10 * time.Millisecond)
			ordered := fr.count(seqr, "Ordered", "")
			h.submitCall(cl, 1, "x") // a late copy of a superseded call
			h.rt.Sleep(10 * time.Millisecond)
			for i, id := range h.ids {
				if got := rep.of(id); !reflect.DeepEqual(got, []uint64{1, 0}) {
					t.Errorf("%s reported %v, want [1 0]: the superseded call without a position", id, got)
				}
				if d, ok, timedOut := h.members[i].DeliverTimeout(10 * time.Millisecond); ok && !timedOut {
					t.Errorf("%s delivered %+v: a superseded call was ordered", id, d)
				}
			}
			if got := fr.count(seqr, "Ordered", ""); got != ordered {
				t.Errorf("the superseded call drew %d Ordered frames, want none", got-ordered)
			}
		})
	})
}
