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

// copied is a payload that names its copy set, as a client's request in a
// direct-copy group does (replica.Request.Copies).
type copied struct {
	Body string
	Set  uint8
}

func (c copied) CopiedTo(rank int) bool { return c.Set == 0 || c.Set&(1<<rank) != 0 }

// TestCopySetOutsiderTakesRetransmissions: in a direct-copy group a client
// sends its copies to the members its request names. A member in that set
// whose copy the Ordered overtook marks the id and reports neither that copy
// nor, for a call below the row, a late first copy; a member outside the set
// expects no copy, delivers the id unmarked, and reports the client's copy
// through DuplicateSubmit the first time it arrives — the row's own call at
// its position, a call below the row without one.
func TestCopySetOutsiderTakesRetransmissions(t *testing.T) {
	var rep reports
	h := newHarnessCfg(3, false, func(c *Config) { c.OptimisticDeliver = func(Submit) {}; rep.hook(c) })
	h.run(func() {
		cl := h.net.Endpoint(wire.ClientID("c1"))
		defer cl.Close()
		call := func(n uint64) Submit {
			// A Majority client's set: the contact, rank 0, and rank 1.
			return Submit{Group: h.group, Origin: cl.ID(), Call: n, Payload: copied{Body: "x", Set: 0b011}}
		}
		// Call 1 reaches the sequencer; member 1's copy comes after the Ordered.
		cl.Send(h.ids[0], call(1))
		for _, m := range h.members {
			take(t, h.rt, m, 1)
		}
		h.rt.Lock()
		in, out := overtakenMarks(h.members[1]), overtakenMarks(h.members[2])
		h.rt.Unlock()
		if in != 1 || out != 0 {
			t.Errorf("overtaken marks: %d in the set, %d outside it; want 1 and 0", in, out)
		}
		cl.Send(h.ids[1], call(1))
		h.rt.Sleep(10 * time.Millisecond)
		if got := rep.of(h.ids[1]); len(got) != 0 {
			t.Errorf("member 1 reported its overtaken copy at %v, want nothing", got)
		}
		for _, id := range h.ids { // the client's retransmission
			cl.Send(id, call(1))
		}
		h.rt.Sleep(10 * time.Millisecond)
		for _, id := range h.ids {
			if got := rep.of(id); !reflect.DeepEqual(got, []uint64{1}) {
				t.Errorf("%s reported the first retransmission at %v, want [1]", id, got)
			}
		}

		// Below the row: call 2 is ordered, then copies of call 1 arrive.
		cl.Send(h.ids[0], call(2))
		for _, m := range h.members {
			take(t, h.rt, m, 1)
		}
		cl.Send(h.ids[1], call(2))
		cl.Send(h.ids[1], call(1)) // may be a first copy call 2 overtook
		cl.Send(h.ids[2], call(1)) // a retransmission: none was sent here
		h.rt.Sleep(10 * time.Millisecond)
		if got := rep.of(h.ids[1]); !reflect.DeepEqual(got, []uint64{1}) {
			t.Errorf("member 1 reported %v, want [1]: nothing for copies the Ordered overtook", got)
		}
		if got := rep.of(h.ids[2]); !reflect.DeepEqual(got, []uint64{1, 0}) {
			t.Errorf("member 2 reported %v, want [1 0]: the superseded call without a position", got)
		}
	})
}

// TestCopySetWithoutTheSequencerIsPassedOn: a client whose contact moved off
// the sequencer names a copy set that leaves it out; the lowest-ranked member
// of the set passes its copy on, the others hold theirs, as in a plain group.
// The rule reads the set alone: a set no client builds is passed on the
// same way.
func TestCopySetWithoutTheSequencerIsPassedOn(t *testing.T) {
	var fr frames
	h := newHarnessCfg(4, false, func(c *Config) { c.OptimisticDeliver = func(Submit) {}; fr.hook(c) })
	h.run(func() {
		cl := h.net.Endpoint(wire.ClientID("c1"))
		defer cl.Close()
		for i, tc := range []struct {
			set    uint8
			to     []int
			passer int // 0: no one
		}{
			{0b1110, []int{1, 2, 3}, 1}, // a Majority client whose contact is rank 1
			{0b0100, []int{2}, 2},       // a First client whose contact is rank 2
			{0b1011, []int{3, 0, 1}, 0}, // wrapping round to the sequencer: nothing to pass on
			{0b1010, []int{3, 1}, 1},    // a set no client builds
		} {
			sub := Submit{Group: h.group, Origin: cl.ID(), Call: uint64(i + 1), Payload: copied{Body: "x", Set: tc.set}}
			for _, r := range tc.to {
				cl.Send(h.ids[r], sub)
			}
			for _, m := range h.members {
				take(t, h.rt, m, 1)
			}
			for r := 1; r < len(h.ids); r++ {
				want := 0
				if r == tc.passer {
					want = 1
				}
				if n := fr.count(h.ids[r], "Submit", sub.key().name()); n != want {
					t.Errorf("set %04b: member %d passed the copy on %d times, want %d", tc.set, r, n, want)
				}
			}
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
