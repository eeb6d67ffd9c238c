package gcs

import (
	"fmt"
	"testing"
	"time"

	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

// TestSetCheckpointTruncatesWithoutFD: without failure detection there are
// no acks, so the checkpoint alone bounds the retained log.
func TestSetCheckpointTruncatesWithoutFD(t *testing.T) {
	h := newHarness(3, false)
	h.run(func() {
		cl := h.net.Endpoint(wire.ClientID("c1"))
		defer cl.Close()
		const n = 12
		for i := 0; i < n; i++ {
			h.submitFromClient(cl, fmt.Sprintf("m%02d", i), "x")
		}
		take(t, h.rt, h.members[0], n)
		if got := h.members[0].LogLen(); got < n {
			t.Fatalf("pre-checkpoint log length = %d, want >= %d", got, n)
		}
		h.members[0].SetCheckpoint(10, []byte("snapimage"))
		if got := h.members[0].LogLen(); got != 2 {
			t.Errorf("post-checkpoint log length = %d, want 2 (seqs 11, 12)", got)
		}
	})
}

// TestNackBelowFloorServesSnapshot: a member whose NACK asks for a
// truncated position is brought forward with the checkpoint image and the
// retained tail above it.
func TestNackBelowFloorServesSnapshot(t *testing.T) {
	h := newHarness(3, false)
	h.run(func() {
		cl := h.net.Endpoint(wire.ClientID("c1"))
		defer cl.Close()
		seqr, victim := h.ids[0], h.ids[2]
		h.net.SetDropRule(func(from, to wire.NodeID) bool {
			return from == seqr && to == victim
		})
		const n = 10
		for i := 0; i < n; i++ {
			h.submitFromClient(cl, fmt.Sprintf("m%02d", i), "x")
		}
		take(t, h.rt, h.members[0], n)
		h.members[0].SetCheckpoint(8, []byte("snapimage"))
		h.net.SetDropRule(nil)
		// The next ordered message opens a gap at the victim; its NACK for
		// seq 1 is below the sequencer's log floor.
		h.submitFromClient(cl, "trigger", "x")

		d, ok, timedOut := h.members[2].DeliverTimeout(5 * time.Second)
		if !ok || timedOut {
			t.Fatal("victim got no delivery")
		}
		if d.Snapshot == nil || d.Seq != 8 || string(d.Snapshot) != "snapimage" {
			t.Fatalf("first victim delivery = %+v, want snapshot at seq 8", d)
		}
		rest := take(t, h.rt, h.members[2], 3)
		for i, want := range []uint64{9, 10, 11} {
			if rest[i].Seq != want {
				t.Errorf("delivery %d seq = %d, want %d", i, rest[i].Seq, want)
			}
		}
	})
}

// TestSnapshotSettlesCachedSubmits: a member that skips a stretch of the
// order by snapshot still holds the submits that stretch settled — its own
// broadcast and the client copies it relayed. Its FD tick resends them, and
// the sequencer's answers settle them: the retained Ordered (a
// retransmission of its own broadcast) or, once the log has let go of that,
// the position alone (a Hint). Within two resubmit periods the cache is
// empty, and the member sends no submit after that.
func TestSnapshotSettlesCachedSubmits(t *testing.T) {
	for _, truncated := range []bool{false, true} {
		t.Run(map[bool]string{false: "the log holds the Ordered", true: "the log has let go of it"}[truncated], func(t *testing.T) {
			var fr frames
			h := newHarnessCfg(3, true, fr.hook)
			h.run(func() {
				seqr, m2 := h.members[0], h.members[2]
				cl := h.net.Endpoint(wire.ClientID("c1"))
				defer cl.Close()
				h.rt.Sleep(30 * time.Millisecond) // establish liveness
				// Shorter than suspectAfter, so no view change: member 2 sees
				// none of the sequencer's frames while its broadcast and three
				// client requests are ordered.
				h.net.SetDropRule(func(from, to wire.NodeID) bool { return from == h.ids[0] && to == h.ids[2] })
				m2.Broadcast("own", appMsg{Body: "x"})
				for i := 0; i < 3; i++ {
					h.submitFromClient(cl, fmt.Sprintf("theirs%d", i), "x")
				}
				take(t, h.rt, seqr, 4)
				h.rt.Sleep(5 * time.Millisecond) // member 2 has every client copy
				if truncated {
					seqr.SetCheckpoint(4, []byte("snapimage"))
				}
				m2.Handle(h.ids[0], &Snapshot{Group: h.group, Seq: 4, Data: []byte("snapimage")})
				h.rt.Lock()
				held := len(m2.submitCache)
				h.rt.Unlock()
				if held != 4 {
					t.Fatalf("member 2 caches %d submits after the install, want 4 (its own, three relayed)", held)
				}
				h.rt.Sleep(30 * time.Millisecond)
				h.net.SetDropRule(nil)
				if truncated {
					h.rt.Sleep(30 * time.Millisecond) // member 2's ack lets the log go
					if n := seqr.LogLen(); n != 0 {
						t.Fatalf("sequencer retains %d ordered messages, want 0 below the checkpoint", n)
					}
				}
				h.rt.Sleep(2*seqr.cfg.ResubmitAfter - 30*time.Millisecond)
				h.rt.Lock()
				left := len(m2.submitCache)
				h.rt.Unlock()
				if left != 0 {
					t.Errorf("member 2 still caches %d submits two resubmit periods after the install", left)
				}
				before := fr.count(h.ids[2], "Submit", "")
				h.rt.Sleep(time.Second)
				if n := fr.count(h.ids[2], "Submit", "") - before; n != 0 {
					t.Errorf("member 2 sent %d submits in the second after, want 0", n)
				}
			})
		})
	}
}

// TestRepairFrom is the repair function on its own: what repairLocked
// queues for one peer, given the log's floor and the checkpoint. Each case
// is named by its precondition and postcondition.
func TestRepairFrom(t *testing.T) {
	for _, tc := range []struct {
		name          string
		lo, hi, snap  uint64 // the log holds [lo, hi); the checkpoint stands at snap
		from          uint64
		wantSnap      bool
		wantFirst, nO uint64 // Ordered messages sent: nO of them, from wantFirst up
	}{
		{name: "inside the log: the burst from there, no checkpoint",
			lo: 10, hi: 21, snap: 9, from: 15, wantFirst: 15, nO: 6},
		{name: "below the log and covered by the checkpoint: the checkpoint, then the log above it",
			lo: 13, hi: 21, snap: 12, from: 5, wantSnap: true, wantFirst: 13, nO: 8},
		{name: "below the log, not covered by the checkpoint: the log from its floor",
			lo: 13, hi: 21, snap: 3, from: 5, wantFirst: 13, nO: 8},
		{name: "at the top of the log: nothing",
			lo: 10, hi: 21, snap: 9, from: 21},
		{name: "far behind a long log: the burst bound holds",
			lo: 1, hi: 1001, from: 1, wantFirst: 1, nO: repairBurst},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMember(vtime.Virtual(), Config{Group: "g", Self: "a", Members: []wire.NodeID{"a", "b"}})
			for seq := uint64(1); seq < tc.hi; seq++ {
				m.log.put(Ordered{Group: "g", Seq: seq, ID: fmt.Sprint("m", seq)})
			}
			m.log.dropBelow(tc.lo)
			m.snapSeq, m.snapData = tc.snap, []byte("snapimage")
			var act actions
			m.repairLocked("b", tc.from, &act)
			sent := append(act.first[:act.nfirst:act.nfirst], act.rest...)
			gotSnap := false
			if len(sent) > 0 {
				_, gotSnap = sent[0].payload.(*Snapshot)
			}
			if gotSnap != tc.wantSnap {
				t.Fatalf("checkpoint sent first: %v, want %v", gotSnap, tc.wantSnap)
			}
			if gotSnap {
				if p := sent[0].payload.(*Snapshot); p.Seq != tc.snap {
					t.Errorf("checkpoint at %d, want %d", p.Seq, tc.snap)
				}
				sent = sent[1:]
			}
			if uint64(len(sent)) != tc.nO {
				t.Fatalf("%d Ordered messages sent, want %d", len(sent), tc.nO)
			}
			for i, s := range sent {
				if o := s.payload.(*Ordered); s.to != "b" || o.Seq != tc.wantFirst+uint64(i) {
					t.Errorf("message %d: seq %d to %s, want seq %d to b", i, o.Seq, s.to, tc.wantFirst+uint64(i))
				}
			}
		})
	}
}

// TestBackToBackProposalsDropStaleSyncState: when a second view proposal
// supersedes an unfinished sync round, responses collected for the
// abandoned epoch must not leak into the new round (and the old grace
// timer must not fire against it).
func TestBackToBackProposalsDropStaleSyncState(t *testing.T) {
	h := newHarness(3, false)
	h.run(func() {
		m := h.members[0]
		var act actions
		h.rt.Lock()
		v1 := View{Epoch: 1, Members: h.ids}
		m.adoptProposalLocked(v1, &act)
		m.handleSyncRespLocked(SyncResp{Group: h.group, From: h.ids[1], Epoch: 1, Delivered: 0}, &act)
		if len(m.syncResps) != 2 { // own tail + member 1's response
			t.Fatalf("epoch-1 syncResps = %d, want 2", len(m.syncResps))
		}
		v2 := View{Epoch: 2, Members: h.ids}
		m.adoptProposalLocked(v2, &act)
		if len(m.syncResps) != 1 {
			t.Errorf("after superseding proposal syncResps = %d, want 1 (only the fresh own tail)", len(m.syncResps))
		}
		for from, resp := range m.syncResps {
			if resp.Epoch != 2 {
				t.Errorf("stale epoch-%d response from %s leaked into the epoch-2 round", resp.Epoch, from)
			}
		}
		if m.installing == nil || m.installing.Epoch != 2 {
			t.Errorf("installing = %v, want epoch-2 view", m.installing)
		}
		h.rt.Unlock()
	})
}

// TestWatermarkHoldsUntilViewChange: a live member that never acks (its
// outbound traffic is lost) pins the stability watermark, so nothing is
// truncated past it — until a view change removes it from the membership
// and the watermark no longer waits on it.
func TestWatermarkHoldsUntilViewChange(t *testing.T) {
	h := newHarness(3, true)
	h.run(func() {
		cl := h.net.Endpoint(wire.ClientID("c1"))
		defer cl.Close()
		victim := h.ids[2]
		h.net.SetDropRule(func(from, to wire.NodeID) bool {
			return from == victim
		})
		const n = 10
		for i := 0; i < n; i++ {
			h.submitFromClient(cl, fmt.Sprintf("m%02d", i), "x")
		}
		take(t, h.rt, h.members[0], n)
		take(t, h.rt, h.members[1], n)
		h.rt.Sleep(50 * time.Millisecond) // acked frontiers propagate
		h.members[0].SetCheckpoint(8, []byte("snapimage"))
		if got := h.members[0].LogLen(); got < n {
			t.Errorf("log truncated past a silent view member: length = %d, want >= %d", got, n)
		}
		// After suspicion the view shrinks to {0, 1}; the install truncates.
		h.rt.Sleep(500 * time.Millisecond)
		if v := h.members[0].View(); len(v.Members) != 2 {
			t.Fatalf("victim not excluded: %v", v)
		}
		if got := h.members[0].LogLen(); got > 4 {
			t.Errorf("log length after view change = %d, want <= 4 (truncated to the checkpoint)", got)
		}
	})
}
