package gcs

import (
	"sync"
	"testing"
	"time"

	"github.com/replobj/replobj/internal/obs"
	"github.com/replobj/replobj/internal/wire"
)

// These tests cover the relay rule: a client sends a request to one member;
// a non-sequencer that gets it straight from its origin passes it on.

// traffic counts messages per sender through the network's drop hook
// (which drops nothing).
type traffic struct {
	mu   sync.Mutex
	sent map[wire.NodeID]int
}

func watchTraffic(h *harness) *traffic {
	tr := &traffic{sent: make(map[wire.NodeID]int)}
	h.net.SetDropRule(func(from, _ wire.NodeID) bool {
		tr.mu.Lock()
		tr.sent[from]++
		tr.mu.Unlock()
		return false
	})
	return tr
}

func (tr *traffic) from(id wire.NodeID) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.sent[id]
}

// TestFollowerRelaysFreshClientSubmit: with failure detection off nothing
// but the relay ever takes a submit from a follower to the sequencer.
func TestFollowerRelaysFreshClientSubmit(t *testing.T) {
	reg := obs.NewRegistry()
	h := newHarnessCfg(3, false, func(c *Config) { c.Stats = NewStats(reg, string(c.Self)) })
	h.run(func() {
		tr := watchTraffic(h)
		cl := h.net.Endpoint(wire.ClientID("c1"))
		defer cl.Close()
		cl.Send(h.ids[1], Submit{Group: h.group, ID: "m1", Origin: cl.ID(), Payload: appMsg{Body: "x"}})
		for i, m := range h.members {
			if got := ids(take(t, h.rt, m, 1)); got[0] != "m1" {
				t.Errorf("member %d delivered %v, want [m1]", i, got)
			}
		}
		h.rt.Sleep(10 * time.Millisecond)
		// One relay, two Ordered, nothing else: no member relays a relay.
		if a, b, c := tr.from(h.ids[0]), tr.from(h.ids[1]), tr.from(h.ids[2]); a != 2 || b != 1 || c != 0 {
			t.Errorf("messages sent by members 0/1/2 = %d/%d/%d, want 2/1/0", a, b, c)
		}
		for i, want := range []uint64{0, 1, 0} {
			if got := h.members[i].cfg.Stats.SubmitsRelayed.Value(); got != want {
				t.Errorf("member %d: submits_relayed_total = %d, want %d", i, got, want)
			}
		}
	})
}

// TestRelayOfOrderedIDIsSilent: when a client addresses every member, the
// followers' relays reach the sequencer after the client's own copy. They
// are not retransmissions: no DuplicateSubmit report, no log re-broadcast.
// The origin's own second copy still is one.
func TestRelayOfOrderedIDIsSilent(t *testing.T) {
	var dc dupCounter
	h := newHarnessCfg(3, false, dc.hook)
	h.run(func() {
		tr := watchTraffic(h)
		cl := h.net.Endpoint(wire.ClientID("c1"))
		defer cl.Close()
		h.submitFromClient(cl, "m1", "x")
		for _, m := range h.members {
			take(t, h.rt, m, 1)
		}
		h.rt.Sleep(10 * time.Millisecond)
		if b, c := tr.from(h.ids[1]), tr.from(h.ids[2]); b != 1 || c != 1 {
			t.Fatalf("followers sent %d/%d messages, want one relay each", b, c)
		}
		if n := dc.count(h.ids[0]); n != 0 {
			t.Errorf("sequencer reported %d relays as duplicate submits, want 0", n)
		}
		if n := tr.from(h.ids[0]); n != 2 {
			t.Errorf("sequencer sent %d messages, want 2 (one Ordered per follower, no re-broadcast)", n)
		}

		h.submitFromClient(cl, "m1", "x") // the origin asks again
		h.rt.Sleep(10 * time.Millisecond)
		for _, id := range h.ids {
			if n := dc.count(id); n != 1 {
				t.Errorf("%s: retransmission reported %d times, want 1", id, n)
			}
		}
		if n := tr.from(h.ids[0]); n != 4 {
			t.Errorf("sequencer sent %d messages, want 4 (the retransmission re-broadcasts the log)", n)
		}
		if b, c := tr.from(h.ids[1]), tr.from(h.ids[2]); b != 1 || c != 1 {
			t.Errorf("followers sent %d/%d messages, want no relay of a retransmission", b, c)
		}
	})
}

// TestDirectCopyGroupRelaysNothing: members of a direct-copy group expect
// the submitter to address all of them, the sequencer included.
func TestDirectCopyGroupRelaysNothing(t *testing.T) {
	h := newHarnessCfg(3, false, func(c *Config) { c.DirectCopies = true })
	h.run(func() {
		tr := watchTraffic(h)
		cl := h.net.Endpoint(wire.ClientID("c1"))
		defer cl.Close()
		cl.Send(h.ids[1], Submit{Group: h.group, ID: "m1", Origin: cl.ID(), Payload: appMsg{Body: "x"}})
		h.rt.Sleep(50 * time.Millisecond)
		if n := tr.from(h.ids[1]); n != 0 {
			t.Errorf("follower of a direct-copy group sent %d messages, want 0", n)
		}
		// Its own broadcasts still go to the sequencer.
		h.members[1].Broadcast("own", appMsg{Body: "y"})
		if got := ids(take(t, h.rt, h.members[2], 1)); got[0] != "own" {
			t.Errorf("delivered %v, want [own]", got)
		}
	})
}

// TestNoRelayDuringViewInstall: while a proposal is being installed the
// sequencer is not settled; the submit stays cached and installing the view
// resubmits it.
func TestNoRelayDuringViewInstall(t *testing.T) {
	h := newHarness(3, false)
	h.run(func() {
		tr := watchTraffic(h)
		cl := h.net.Endpoint(wire.ClientID("c1"))
		defer cl.Close()
		next := View{Epoch: 1, Members: h.ids[1:]}
		h.rt.Lock()
		h.members[2].installing = &next
		h.rt.Unlock()
		cl.Send(h.ids[2], Submit{Group: h.group, ID: "m1", Origin: cl.ID(), Payload: appMsg{Body: "x"}})
		h.rt.Sleep(10 * time.Millisecond)
		if n := tr.from(h.ids[2]); n != 0 {
			t.Errorf("member sent %d messages while installing a view, want 0", n)
		}
		h.rt.Lock()
		_, cached := h.members[2].submitCache["m1"]
		h.members[2].installing = nil
		h.rt.Unlock()
		if !cached {
			t.Error("submit received during a view install was not cached")
		}
	})
}
