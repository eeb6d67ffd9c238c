package gcs

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/replobj/replobj/internal/obs"
	"github.com/replobj/replobj/internal/transport"
	"github.com/replobj/replobj/internal/wire"
)

// These tests cover the relay rule: a client sends a request to one member;
// a non-sequencer that gets it straight from its origin passes it on.

// TestFollowerRelaysFreshClientSubmit: with failure detection off nothing
// but the relay ever takes a submit from a follower to the sequencer.
func TestFollowerRelaysFreshClientSubmit(t *testing.T) {
	reg := obs.NewRegistry()
	var fr frames
	h := newHarnessCfg(3, false, func(c *Config) { c.Stats = NewStats(reg, string(c.Self)); fr.hook(c) })
	h.run(func() {
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
		if a, b, c := fr.count(h.ids[0], "", ""), fr.count(h.ids[1], "", ""), fr.count(h.ids[2], "", ""); a != 2 || b != 1 || c != 0 {
			t.Errorf("messages sent by members 0/1/2 = %d/%d/%d, want 2/1/0", a, b, c)
		}
		for i, want := range []uint64{0, 1, 0} {
			if got := h.members[i].cfg.Stats.SubmitsRelayed.Value(); got != want {
				t.Errorf("member %d: submits_relayed_total = %d, want %d", i, got, want)
			}
		}
	})
}

// frames records what members send, by payload type and id, through a
// wrapped Config.Send (hook it with newHarnessCfg).
type frames struct {
	mu   sync.Mutex
	sent []frame
}

type frame struct {
	from     wire.NodeID
	kind, id string // kind: "Submit", "Ordered", "Hint", …; id: see key.name
}

func (f *frames) hook(c *Config) {
	send, self := c.Send, c.Self
	c.Send = func(to wire.NodeID, p any) {
		fr := frame{from: self, kind: strings.TrimPrefix(fmt.Sprintf("%T", p), "gcs.")}
		switch p := p.(type) {
		case Submit:
			fr.id = p.key().name()
		case Ordered:
			fr.id = p.key().name()
		case Hint:
			fr.id = p.key().name()
		}
		f.mu.Lock()
		f.sent = append(f.sent, fr)
		f.mu.Unlock()
		send(to, p)
	}
}

// count returns how many frames of kind from sent, for id ("" = any kind,
// any id).
func (f *frames) count(from wire.NodeID, kind, id string) (n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, fr := range f.sent {
		if fr.from == from && (kind == "" || fr.kind == kind) && (id == "" || fr.id == id) {
			n++
		}
	}
	return n
}

// TestStaleRelayIsAnsweredWithItsPosition: when a client addresses every
// member, the followers' relays reach the sequencer after the client's own
// copy. They are not retransmissions — no DuplicateSubmit report, no log
// re-broadcast — but each relayer is told the position, one Hint, which is
// what settles its copy should it never see the Ordered. The origin's own
// second copy still is a retransmission, reported on every member.
func TestStaleRelayIsAnsweredWithItsPosition(t *testing.T) {
	var dc dupCounter
	var fr frames
	h := newHarnessCfg(3, false, func(c *Config) { dc.hook(c); fr.hook(c) })
	h.run(func() {
		cl := h.net.Endpoint(wire.ClientID("c1"))
		defer cl.Close()
		seqr := h.ids[0]
		h.submitFromClient(cl, "m1", "x")
		for _, m := range h.members {
			take(t, h.rt, m, 1)
		}
		h.rt.Sleep(10 * time.Millisecond)
		if b, c := fr.count(h.ids[1], "Submit", ""), fr.count(h.ids[2], "Submit", ""); b != 1 || c != 1 {
			t.Fatalf("followers sent %d/%d submits, want one relay each", b, c)
		}
		if n := dc.count(seqr); n != 0 {
			t.Errorf("sequencer reported %d relays as duplicate submits, want 0", n)
		}
		if o, hi := fr.count(seqr, "Ordered", ""), fr.count(seqr, "Hint", "m1"); o != 2 || hi != 2 {
			t.Errorf("sequencer sent %d Ordered and %d Hints, want 2 and 2 (one position per relaying follower, no re-broadcast)", o, hi)
		}

		h.submitFromClient(cl, "m1", "x") // the origin asks again
		h.rt.Sleep(10 * time.Millisecond)
		for _, id := range h.ids {
			if n := dc.count(id); n != 1 {
				t.Errorf("%s: retransmission reported %d times, want 1", id, n)
			}
		}
		if o, hi := fr.count(seqr, "Ordered", ""), fr.count(seqr, "Hint", ""); o != 4 || hi != 2 {
			t.Errorf("sequencer sent %d Ordered and %d Hints in all, want 4 and 2 (the retransmission re-broadcasts the log)", o, hi)
		}
		if b, c := fr.count(h.ids[1], "Submit", ""), fr.count(h.ids[2], "Submit", ""); b != 1 || c != 1 {
			t.Errorf("followers sent %d/%d submits, want no relay of a retransmission", b, c)
		}
	})
}

// TestGroupWideSubmitIsNotARetransmission: an id that several senders
// submit — an ordered timeout every replica broadcasts, a nested request or
// reply every replica of the caller sends — is ordered once, and no second
// copy is taken for a client retransmission: nothing is reported, the log is
// not re-broadcast. Copies from members are answered with the position.
func TestGroupWideSubmitIsNotARetransmission(t *testing.T) {
	const n = 50
	check := func(t *testing.T, h *harness, dc *dupCounter, fr *frames, maxHints int) {
		t.Helper()
		for _, m := range h.members {
			take(t, h.rt, m, n)
		}
		h.rt.Sleep(10 * time.Millisecond)
		seqr := h.ids[0]
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("g%02d", i)
			if o, hi := fr.count(seqr, "Ordered", id), fr.count(seqr, "Hint", id); o != 2 || hi > maxHints {
				t.Errorf("%s: sequencer sent %d Ordered and %d Hints, want 2 and at most %d", id, o, hi, maxHints)
			}
		}
		for _, id := range h.ids {
			if d := dc.count(id); d != 0 {
				t.Errorf("%s reported %d duplicate submits, want 0", id, d)
			}
		}
	}
	t.Run("every member broadcasts", func(t *testing.T) {
		var dc dupCounter
		var fr frames
		h := newHarnessCfg(3, false, func(c *Config) { dc.hook(c); fr.hook(c) })
		h.run(func() {
			for i := 0; i < n; i++ {
				for _, m := range h.members {
					m.Broadcast(fmt.Sprintf("g%02d", i), appMsg{Body: "t"})
				}
			}
			check(t, h, &dc, &fr, 2) // one position per follower's copy
		})
	})
	t.Run("three origins outside the group", func(t *testing.T) {
		var dc dupCounter
		var fr frames
		h := newHarnessCfg(3, false, func(c *Config) { dc.hook(c); fr.hook(c) })
		h.run(func() {
			var origins []transport.Endpoint // the replicas of a calling group
			for rank := 0; rank < 3; rank++ {
				origins = append(origins, h.net.Endpoint(wire.ReplicaID("caller", rank)))
				defer origins[rank].Close()
			}
			for i := 0; i < n; i++ {
				for _, o := range origins {
					h.submitFromClient(o, fmt.Sprintf("g%02d", i), "t")
				}
			}
			// Each follower relays the first copy it sees (it cannot tell a
			// copy sent to every member from a client's only one); the
			// sequencer answers that stale relay with the position.
			check(t, h, &dc, &fr, 2)
		})
	})
}

// TestDirectCopyGroupRelaysNothing: members of a direct-copy group expect
// the submitter to address all of them, the sequencer included.
func TestDirectCopyGroupRelaysNothing(t *testing.T) {
	var fr frames
	h := newHarnessCfg(3, false, func(c *Config) { c.OptimisticDeliver = func(Submit) {}; fr.hook(c) })
	h.run(func() {
		cl := h.net.Endpoint(wire.ClientID("c1"))
		defer cl.Close()
		cl.Send(h.ids[1], Submit{Group: h.group, ID: "m1", Origin: cl.ID(), Payload: appMsg{Body: "x"}})
		h.rt.Sleep(50 * time.Millisecond)
		if n := fr.count(h.ids[1], "", ""); n != 0 {
			t.Errorf("follower of a direct-copy group sent %d messages, want 0", n)
		}
		// Its own broadcasts still go to the sequencer.
		h.members[1].Broadcast("own", appMsg{Body: "y"})
		if got := ids(take(t, h.rt, h.members[2], 1)); got[0] != "own" {
			t.Errorf("delivered %v, want [own]", got)
		}
	})
}

// TestOptimisticDeliverySkipsTheOrderingMember: a direct-copy group surfaces
// each fresh submit once on every follower's optimistic stream and never on
// the member that orders it as it arrives — after a view change the new
// sequencer no longer surfaces either; a retransmission surfaces nowhere.
func TestOptimisticDeliverySkipsTheOrderingMember(t *testing.T) {
	var surfaced [3]atomic.Int32
	h := newHarnessCfg(3, true, func(c *Config) {
		for rank := range surfaced {
			if c.Self == wire.ReplicaID(c.Group, rank) {
				c.OptimisticDeliver = func(Submit) { surfaced[rank].Add(1) }
			}
		}
	})
	h.run(func() {
		cl := h.net.Endpoint(wire.ClientID("c1"))
		defer cl.Close()
		check := func(when string, want [3]int32) {
			t.Helper()
			for rank := range surfaced {
				if n := surfaced[rank].Load(); n != want[rank] {
					t.Errorf("%s: member %d surfaced %d submits, want %d", when, rank, n, want[rank])
				}
			}
		}
		for call := uint64(1); call <= 3; call++ {
			h.submitCall(cl, call, "x")
		}
		for _, m := range h.members {
			take(t, h.rt, m, 3)
		}
		h.submitCall(cl, 3, "x") // the client asks again
		h.rt.Sleep(10 * time.Millisecond)
		check("first view", [3]int32{0, 3, 3})

		h.net.Crash(h.ids[0])
		h.rt.Sleep(500 * time.Millisecond) // view change to {1, 2}
		if v := h.members[1].View(); v.Sequencer() != h.ids[1] {
			t.Fatalf("member 1 installed %v, want it the sequencer", v)
		}
		for call := uint64(4); call <= 6; call++ {
			h.submitCall(cl, call, "x")
		}
		for _, m := range h.members[1:] {
			take(t, h.rt, m, 3)
		}
		check("second view", [3]int32{0, 3, 6})
	})
}

// TestNoRelayDuringViewInstall: while a proposal is being installed the
// sequencer is not settled; the submit stays cached and installing the view
// resubmits it.
func TestNoRelayDuringViewInstall(t *testing.T) {
	var fr frames
	h := newHarnessCfg(3, false, fr.hook)
	h.run(func() {
		cl := h.net.Endpoint(wire.ClientID("c1"))
		defer cl.Close()
		next := View{Epoch: 1, Members: h.ids[1:]}
		h.rt.Lock()
		h.members[2].installing = &next
		h.rt.Unlock()
		cl.Send(h.ids[2], Submit{Group: h.group, ID: "m1", Origin: cl.ID(), Payload: appMsg{Body: "x"}})
		h.rt.Sleep(10 * time.Millisecond)
		if n := fr.count(h.ids[2], "", ""); n != 0 {
			t.Errorf("member sent %d messages while installing a view, want 0", n)
		}
		h.rt.Lock()
		_, cached := h.members[2].submitCache[key{id: "m1"}]
		h.members[2].installing = nil
		h.rt.Unlock()
		if !cached {
			t.Error("submit received during a view install was not cached")
		}
	})
}
