package gcs

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/replobj/replobj/internal/wire"
)

// TestLossyNetworkUnderLoad: sustained random message loss between the
// sequencer and a follower must be fully repaired by NACK retransmission.
func TestLossyNetworkUnderLoad(t *testing.T) {
	h := newHarness(3, false)
	drop := 0
	h.net.SetDropRule(func(from, to wire.NodeID) bool {
		// Drop every third sequencer→member2 message.
		if from == h.ids[0] && to == h.ids[2] {
			drop++
			return drop%3 == 0
		}
		return false
	})
	h.run(func() {
		cl := h.net.Endpoint(wire.ClientID("c1"))
		defer cl.Close()
		const n = 40
		for i := 0; i < n; i++ {
			h.submitFromClient(cl, fmt.Sprintf("m%03d", i), "x")
			if i%5 == 4 {
				h.rt.Sleep(2 * time.Millisecond)
			}
		}
		// Keep nudging: each extra message triggers gap NACKs at the victim.
		for i := 0; i < 10; i++ {
			h.rt.Sleep(10 * time.Millisecond)
			h.submitFromClient(cl, fmt.Sprintf("nudge%d", i), "x")
		}
		ref := ids(take(t, h.rt, h.members[0], n+10))
		got := ids(take(t, h.rt, h.members[2], n+10))
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("lossy member diverged:\n  ref: %v\n  got: %v", ref, got)
		}
	})
}

// TestStaleProposalIgnored: proposals with an epoch not above the current
// (or already-installing) one must be ignored.
func TestStaleProposalIgnored(t *testing.T) {
	h := newHarness(3, false)
	h.run(func() {
		m := h.members[1]
		var act actions
		h.rt.Lock()
		m.adoptProposalLocked(View{Epoch: 0, Members: []wire.NodeID{h.ids[1]}}, &act)
		if m.installing != nil {
			t.Error("epoch-0 proposal adopted over installed epoch 0")
		}
		m.adoptProposalLocked(View{Epoch: 2, Members: []wire.NodeID{h.ids[1], h.ids[2]}}, &act)
		if m.installing == nil || m.installing.Epoch != 2 {
			t.Fatalf("installing = %v", m.installing)
		}
		m.adoptProposalLocked(View{Epoch: 1, Members: []wire.NodeID{h.ids[2]}}, &act)
		if m.installing.Epoch != 2 {
			t.Error("lower-epoch proposal replaced a higher installing one")
		}
		h.rt.Unlock()
	})
}

// TestDuplicateOrderedIgnored: redelivered Ordered messages (below the
// delivery frontier) do not re-deliver.
func TestDuplicateOrderedIgnored(t *testing.T) {
	h := newHarness(3, false)
	h.run(func() {
		cl := h.net.Endpoint(wire.ClientID("c1"))
		defer cl.Close()
		h.submitFromClient(cl, "a", "x")
		got := ids(take(t, h.rt, h.members[1], 1))
		if !reflect.DeepEqual(got, []string{"a"}) {
			t.Fatalf("got %v", got)
		}
		// Replay the retained ordered message at member 1.
		h.rt.Lock()
		o, ok := h.members[1].log.get(1)
		h.rt.Unlock()
		if !ok {
			t.Fatal("seq 1 not retained")
		}
		h.members[1].Handle(h.ids[0], o)
		if d, ok, timedOut := h.members[1].DeliverTimeout(10 * time.Millisecond); ok && !timedOut {
			t.Errorf("duplicate ordered redelivered: %+v", d)
		}
	})
}

// TestBroadcastAfterStopIsNoop: using a stopped member must not panic or
// deliver.
func TestBroadcastAfterStopIsNoop(t *testing.T) {
	h := newHarness(3, false)
	h.run(func() {
		h.members[1].Stop()
		h.members[1].Broadcast("late", appMsg{Body: "x"})
		if _, ok := h.members[1].Deliver(); ok {
			t.Error("delivery after Stop")
		}
		ok := h.members[1].Handle(h.ids[0], Ordered{Group: h.group, Seq: 99, ID: "z"})
		if !ok {
			t.Error("stopped member should still consume gcs traffic silently")
		}
	})
}

// TestLogRetentionBounded: the retained ordered log must stay within its
// configured bound under sustained traffic.
func TestLogRetentionBounded(t *testing.T) {
	rt := newHarness(1, false)
	// Tighten retention for the test.
	rt.members[0].cfg.LogRetain = 32
	rt.run(func() {
		cl := rt.net.Endpoint(wire.ClientID("c1"))
		defer cl.Close()
		const n = 200
		for i := 0; i < n; i++ {
			rt.submitFromClient(cl, fmt.Sprintf("m%03d", i), "x")
		}
		_ = take(t, rt.rt, rt.members[0], n)
		rt.rt.Lock()
		size := rt.members[0].log.n
		rt.rt.Unlock()
		if size > 32 {
			t.Errorf("retained log has %d entries, LogRetain 32", size)
		}
	})
}

// TestViewString covers the diagnostic formatting.
func TestViewString(t *testing.T) {
	v := View{Epoch: 4, Members: []wire.NodeID{"a"}}
	if got := v.String(); got != "view{epoch=4 members=[a]}" {
		t.Errorf("String = %q", got)
	}
}

// TestSimultaneousSuspicion: both survivors suspect the crashed sequencer
// in the same FD tick and propose the identical next view — the protocol
// must converge to one view without conflict.
func TestSimultaneousSuspicion(t *testing.T) {
	h := newHarness(3, true)
	h.run(func() {
		cl := h.net.Endpoint(wire.ClientID("c1"))
		defer cl.Close()
		h.submitFromClient(cl, "pre", "x")
		h.rt.Sleep(60 * time.Millisecond)
		h.net.Crash(h.ids[0])
		h.rt.Sleep(time.Second)
		h.submitFromClient(cl, "post", "x")

		for _, idx := range []int{1, 2} {
			app, views := takeWithViews(t, h.members[idx], 2)
			if !reflect.DeepEqual(app, []string{"pre", "post"}) {
				t.Errorf("member %d stream = %v", idx, app)
			}
			// Exactly one view change must have been installed, with both
			// survivors and member 1 as sequencer.
			if len(views) != 1 {
				t.Errorf("member %d saw %d view changes: %v", idx, len(views), views)
			}
			v := views[len(views)-1]
			want := []wire.NodeID{h.ids[1], h.ids[2]}
			if !reflect.DeepEqual(v.Members, want) {
				t.Errorf("member %d view = %v", idx, v)
			}
		}
	})
}

// dupCounter counts DuplicateSubmit reports per member.
type dupCounter struct {
	mu       sync.Mutex
	reported map[wire.NodeID]int
}

func (d *dupCounter) hook(c *Config) {
	self := c.Self
	c.DuplicateSubmit = func(Submit, uint64) {
		d.mu.Lock()
		defer d.mu.Unlock()
		if d.reported == nil {
			d.reported = make(map[wire.NodeID]int)
		}
		d.reported[self]++
	}
}

func (d *dupCounter) count(id wire.NodeID) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.reported[id]
}

// TestOvertakenSubmitIsNotADuplicate: in a direct-copy group the submitter
// sends to every member, and a follower that receives the sequencer's
// Ordered copy before the submitter's own does not report that late first
// arrival through DuplicateSubmit; the second arrival is a retransmission
// and is reported, like every arrival on a member that saw the direct copy
// in time.
func TestOvertakenSubmitIsNotADuplicate(t *testing.T) {
	var dc dupCounter
	h := newHarnessCfg(3, false, func(c *Config) {
		c.OptimisticDeliver = func(Submit) {}
		dc.hook(c)
	})

	h.run(func() {
		cl := h.net.Endpoint(wire.ClientID("c1"))
		defer cl.Close()
		sub := Submit{Group: h.group, ID: "m1", Origin: cl.ID(), Payload: appMsg{Body: "x"}}
		// Only the sequencer and follower 1 get the direct copy in time.
		cl.Send(h.ids[0], sub)
		cl.Send(h.ids[1], sub)
		for _, m := range h.members {
			take(t, h.rt, m, 1)
		}
		cl.Send(h.ids[2], sub) // follower 2's copy, overtaken by the Ordered
		h.rt.Sleep(10 * time.Millisecond)
		if n := dc.count(h.ids[2]); n != 0 {
			t.Errorf("overtaken first arrival reported %d times through DuplicateSubmit, want 0", n)
		}
		h.submitFromClient(cl, "m1", "x") // a real retransmission, to everyone
		h.rt.Sleep(10 * time.Millisecond)
		for _, id := range h.ids {
			if n := dc.count(id); n != 1 {
				t.Errorf("%s: retransmission reported %d times, want 1", id, n)
			}
		}
		h.rt.Lock()
		left := overtakenMarks(h.members[2])
		h.rt.Unlock()
		if left != 0 {
			t.Errorf("follower still holds %d overtaken marks after the direct copy arrived", left)
		}
	})
}

// overtakenMarks counts the ids m still expects a direct copy of.
func overtakenMarks(m *Member) (n int) {
	for _, e := range m.ids {
		if e.overtaken {
			n++
		}
	}
	for _, row := range m.origins {
		if row.overtaken {
			n++
		}
	}
	return n
}

// TestPlainGroupReplaysFirstDirectArrival is the twin: outside direct-copy
// groups a client sends its one copy to the sequencer, so a follower never
// sees a first copy race its Ordered — the first direct arrival of an
// ordered id is the client's retransmission and is reported at once.
func TestPlainGroupReplaysFirstDirectArrival(t *testing.T) {
	var dc dupCounter
	h := newHarnessCfg(3, false, dc.hook)
	h.run(func() {
		cl := h.net.Endpoint(wire.ClientID("c1"))
		defer cl.Close()
		sub := Submit{Group: h.group, ID: "m1", Origin: cl.ID(), Payload: appMsg{Body: "x"}}
		cl.Send(h.ids[0], sub)
		for _, m := range h.members {
			take(t, h.rt, m, 1)
		}
		cl.Send(h.ids[2], sub)
		h.rt.Sleep(10 * time.Millisecond)
		if n := dc.count(h.ids[2]); n != 1 {
			t.Errorf("first direct arrival of an ordered id reported %d times, want 1", n)
		}
		h.rt.Lock()
		marks := overtakenMarks(h.members[2])
		h.rt.Unlock()
		if marks != 0 {
			t.Errorf("follower of a plain group holds %d overtaken marks, want 0", marks)
		}
	})
}

// TestMemberBroadcastLeavesNoOvertakenMark: a member's own broadcast goes to
// the sequencer only, so the other members deliver it without ever seeing a
// direct copy — and must not keep a mark waiting for one, direct-copy group
// or not.
func TestMemberBroadcastLeavesNoOvertakenMark(t *testing.T) {
	h := newHarnessCfg(3, false, func(c *Config) { c.OptimisticDeliver = func(Submit) {} })
	h.run(func() {
		h.members[1].Broadcast("nested", appMsg{Body: "x"})
		for _, m := range h.members {
			take(t, h.rt, m, 1)
		}
		h.rt.Lock()
		defer h.rt.Unlock()
		for i, m := range h.members {
			if n := overtakenMarks(m); n != 0 {
				t.Errorf("member %d holds %d overtaken marks after a member broadcast, want 0", i, n)
			}
		}
	})
}
