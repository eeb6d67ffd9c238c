package gcs

import (
	"reflect"
	"testing"
	"time"

	"github.com/replobj/replobj/internal/wire"
)

// These tests cover the chaos-hardening paths: heartbeat-frontier catch-up,
// FD-driven resubmission of lost submits, the opt-in quorum guard, and
// crash-restart rejoin.

// TestHeartbeatFrontierRepairsLostTail: the last messages of a burst are
// lost toward one member and no later submit ever arrives to open a gap —
// the piggybacked heartbeat frontier must trigger the NACK instead.
func TestHeartbeatFrontierRepairsLostTail(t *testing.T) {
	h := newHarnessCfg(3, true, func(c *Config) {
		c.ResubmitAfter = time.Hour // isolate the frontier path
	})
	h.run(func() {
		cl := h.net.Endpoint(wire.ClientID("c1"))
		defer cl.Close()
		victim, seqr := h.ids[2], h.ids[0]
		h.rt.Sleep(30 * time.Millisecond) // establish liveness
		h.net.SetDropRule(func(from, to wire.NodeID) bool {
			return from == seqr && to == victim
		})
		for i := 0; i < 5; i++ {
			h.submitFromClient(cl, []string{"a", "b", "c", "d", "e"}[i], "x")
		}
		h.rt.Sleep(50 * time.Millisecond) // burst fully ordered elsewhere; victim got nothing
		h.net.SetDropRule(nil)
		// No further submits: only heartbeats flow. The victim must still
		// catch up within a few heartbeat intervals.
		got := ids(take(t, h.rt, h.members[2], 5))
		want := []string{"a", "b", "c", "d", "e"}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("victim delivered %v, want %v", got, want)
		}
	})
}

// TestStaleSubmitResent: a member's own broadcast is lost on its way to the
// sequencer; the FD tick re-sends it once it has sat unordered past
// ResubmitAfter, without any view change.
func TestStaleSubmitResent(t *testing.T) {
	h := newHarness(3, true)
	h.run(func() {
		h.rt.Sleep(30 * time.Millisecond)
		// Cut member1→sequencer for less than suspectAfter so no suspicion
		// fires, losing the forwarded submit.
		h.net.SetDropRule(func(from, to wire.NodeID) bool {
			return from == h.ids[1] && to == h.ids[0]
		})
		h.members[1].Broadcast("lost-once", appMsg{Body: "x"})
		h.rt.Sleep(60 * time.Millisecond)
		h.net.SetDropRule(nil)
		for i, m := range h.members {
			got := ids(take(t, h.rt, m, 1))
			if !reflect.DeepEqual(got, []string{"lost-once"}) {
				t.Errorf("member %d delivered %v, want [lost-once]", i, got)
			}
		}
		// No view change may have occurred.
		if v := h.members[0].View(); v.Epoch != 0 || len(v.Members) != 3 {
			t.Errorf("unexpected view change: %v", v)
		}
	})
}

// TestQuorumBlocksMinorityProgress: with Quorum set, a sequencer that can
// hear no majority must neither shrink the view nor order submits; once the
// peers are reachable again it orders its backlog in place.
func TestQuorumBlocksMinorityProgress(t *testing.T) {
	h := newHarnessCfg(3, true, func(c *Config) { c.Quorum = true })
	h.run(func() {
		cl := h.net.Endpoint(wire.ClientID("c1"))
		defer cl.Close()
		h.rt.Sleep(50 * time.Millisecond)
		h.net.Crash(h.ids[1])
		h.net.Crash(h.ids[2])
		h.rt.Sleep(300 * time.Millisecond) // well past suspectAfter
		h.submitFromClient(cl, "stuck", "x")
		if d, ok, timedOut := h.members[0].DeliverTimeout(300 * time.Millisecond); ok && !timedOut {
			t.Fatalf("minority sequencer ordered %+v without a quorum", d)
		}
		if v := h.members[0].View(); v.Epoch != 0 || len(v.Members) != 3 {
			t.Fatalf("minority sequencer changed the view: %v", v)
		}
		h.net.Restore(h.ids[1])
		h.net.Restore(h.ids[2])
		h.rt.Sleep(200 * time.Millisecond)
		for i, m := range h.members {
			got := ids(take(t, h.rt, m, 1))
			if !reflect.DeepEqual(got, []string{"stuck"}) {
				t.Errorf("member %d delivered %v, want [stuck]", i, got)
			}
		}
	})
}

// TestResumedSequencerOrdersItsBacklogFromTheTick: a sequencer that lost its
// quorum caches what it is sent and orders the backlog from the FD tick once
// it hears a majority again, in the view it had. The backlog's Ordered frames
// leave through actions.finish like every other event's, the FD tick's
// included: one to each peer, and no view change stands in for them.
func TestResumedSequencerOrdersItsBacklogFromTheTick(t *testing.T) {
	var fr frames
	h := newHarnessCfg(3, true, func(c *Config) { c.Quorum = true; fr.hook(c) })
	h.run(func() {
		cl := h.net.Endpoint(wire.ClientID("c1"))
		defer cl.Close()
		seqr := h.ids[0]
		h.rt.Sleep(50 * time.Millisecond)
		h.net.Crash(h.ids[1])
		h.net.Crash(h.ids[2])
		h.rt.Sleep(300 * time.Millisecond) // well past suspectAfter
		h.submitCall(cl, 1, "x")
		h.submitCall(cl, 2, "x")
		h.rt.Sleep(100 * time.Millisecond)
		if n := fr.count(seqr, "Ordered", ""); n != 0 {
			t.Fatalf("suspended sequencer sent %d Ordered frames", n)
		}
		h.net.Restore(h.ids[1])
		h.net.Restore(h.ids[2])
		for i, m := range h.members {
			if got := ids(take(t, h.rt, m, 2)); !reflect.DeepEqual(got, []string{"client/c1#1", "client/c1#2"}) {
				t.Errorf("member %d delivered %v, want [client/c1#1 client/c1#2]", i, got)
			}
		}
		for _, id := range []string{"client/c1#1", "client/c1#2"} {
			if n := fr.count(seqr, "Ordered", id); n != 2 {
				t.Errorf("sequencer sent %d Ordered frames for %s, want one to each peer", n, id)
			}
		}
		for i, m := range h.members {
			if v := m.View(); v.Epoch != 0 {
				t.Errorf("member %d installed %v, want the backlog ordered in the first view", i, v)
			}
		}
	})
}

// TestCrashRestartRejoinsAtOriginalRank: a follower isolated long enough to
// be excluded from the view is re-added at its original rank once heard
// again, and catches up on everything ordered during its absence.
func TestCrashRestartRejoinsAtOriginalRank(t *testing.T) {
	h := newHarnessCfg(3, true, func(c *Config) { c.Quorum = true })
	h.run(func() {
		cl := h.net.Endpoint(wire.ClientID("c1"))
		defer cl.Close()
		h.submitFromClient(cl, "before", "x")
		h.rt.Sleep(50 * time.Millisecond)
		h.net.Crash(h.ids[1])
		h.rt.Sleep(500 * time.Millisecond) // view change to {0, 2}
		if v := h.members[0].View(); len(v.Members) != 2 {
			t.Fatalf("follower crash not detected: %v", v)
		}
		h.submitFromClient(cl, "during", "x")
		h.rt.Sleep(50 * time.Millisecond)
		h.net.Restore(h.ids[1])
		h.rt.Sleep(500 * time.Millisecond) // rejoin proposal + sync
		h.submitFromClient(cl, "after", "x")

		want := []string{"before", "during", "after"}
		for _, idx := range []int{0, 1, 2} {
			app, views := takeWithViews(t, h.members[idx], 3)
			if !reflect.DeepEqual(app, want) {
				t.Errorf("member %d app stream = %v, want %v", idx, app, want)
			}
			if len(views) == 0 {
				t.Fatalf("member %d saw no view changes", idx)
			}
			final := views[len(views)-1]
			if !reflect.DeepEqual(final.Members, h.ids) {
				t.Errorf("member %d final view = %v, want full membership %v", idx, final, h.ids)
			}
			if final.Sequencer() != h.ids[0] {
				t.Errorf("member %d: sequencer = %v, want %v (original rank order)", idx, final.Sequencer(), h.ids[0])
			}
		}
	})
}

// TestAbandonedInstallRecovers: a follower adopts a view proposal, then the
// proposed sequencer dies before committing the view event. The follower
// must abandon the stalled install and drive a fresh view change instead of
// staying wedged forever.
func TestAbandonedInstallRecovers(t *testing.T) {
	h := newHarness(3, true)
	h.run(func() {
		h.rt.Sleep(50 * time.Millisecond) // establish liveness
		// Lose member2's sync responses so member1's fail-over sync stalls
		// in its grace period.
		h.net.SetDropRule(func(from, to wire.NodeID) bool {
			return from == h.ids[2] && to == h.ids[1]
		})
		h.net.Crash(h.ids[0])
		h.rt.Sleep(150 * time.Millisecond) // suspicion fires; member1 proposes and starts syncing
		h.net.Crash(h.ids[1])              // proposer dies mid-install
		h.net.SetDropRule(nil)
		h.rt.Sleep(time.Second) // abandon grace + suspicion + re-proposal
		h.members[2].Broadcast("solo", appMsg{Body: "x"})
		_, views := takeWithViews(t, h.members[2], 1)
		if len(views) == 0 {
			t.Fatal("member 2 never installed a new view")
		}
		final := views[len(views)-1]
		if len(final.Members) != 1 || final.Sequencer() != h.ids[2] {
			t.Errorf("member 2 final view = %v, want singleton {%v}", final, h.ids[2])
		}
	})
}

// TestFailoverDeliversInSeqOrder: when the sequencer crashes while the next
// sequencer holds cached submits, installing the new view re-orders that
// backlog recursively — the view event must still precede it in the delivery
// stream, and sequence numbers must stay strictly increasing.
func TestFailoverDeliversInSeqOrder(t *testing.T) {
	h := newHarness(3, true)
	h.run(func() {
		h.rt.Sleep(50 * time.Millisecond) // establish liveness
		h.net.Crash(h.ids[0])
		// Cached at members 1 and 2, unreachable by the dead sequencer.
		h.members[1].Broadcast("backlog-a", appMsg{Body: "x"})
		h.members[1].Broadcast("backlog-b", appMsg{Body: "x"})
		h.rt.Sleep(500 * time.Millisecond) // suspicion + fail-over

		for _, idx := range []int{1, 2} {
			var seqs []uint64
			sawView := false
			for {
				d, ok, timedOut := h.members[idx].DeliverTimeout(200 * time.Millisecond)
				if !ok || timedOut {
					break
				}
				if d.NewView != nil {
					sawView = true
				} else if !sawView {
					t.Errorf("member %d delivered %q (seq %d) before the view event", idx, d.ID, d.Seq)
				}
				seqs = append(seqs, d.Seq)
			}
			if !sawView {
				t.Fatalf("member %d saw no view change", idx)
			}
			for i := 1; i < len(seqs); i++ {
				if seqs[i] <= seqs[i-1] {
					t.Errorf("member %d seqs not strictly increasing: %v", idx, seqs)
				}
			}
		}
	})
}

// TestDeposedSequencerStopsOrdering: a sequencer that learns of a higher
// epoch (it was deposed while unreachable) must not order in the old
// sequence space, even before the new view reaches it.
func TestDeposedSequencerStopsOrdering(t *testing.T) {
	h := newHarness(3, false)
	h.run(func() {
		m := h.members[0]
		// Simulate hearing a heartbeat from a higher epoch.
		m.Handle(h.ids[1], Heartbeat{Group: h.group, From: h.ids[1], Epoch: 5})
		m.Broadcast("late", appMsg{Body: "x"})
		if d, ok, timedOut := m.DeliverTimeout(50 * time.Millisecond); ok && !timedOut {
			t.Fatalf("deposed sequencer delivered %+v", d)
		}
		h.rt.Lock()
		cached := len(m.submitCache)
		h.rt.Unlock()
		if cached != 1 {
			t.Errorf("submit not cached for the next view (cache=%d)", cached)
		}
	})
}
