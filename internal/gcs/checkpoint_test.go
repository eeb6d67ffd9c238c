package gcs

import (
	"fmt"
	"testing"
	"time"

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

// TestSnapshotInstallForgetsOthersSubmits: a snapshot stands in for
// deliveries whose ids the member never learns, so the cached copies of what
// others submitted go with it — the sequencer drops a relay of an ordered id
// silently, and the FD tick would resend them for ever. Its own broadcasts,
// which nobody else would resend, stay.
func TestSnapshotInstallForgetsOthersSubmits(t *testing.T) {
	h := newHarness(3, false)
	h.run(func() {
		m := h.members[1]
		var act actions
		h.rt.Lock()
		m.cacheSubmitLocked(Submit{Group: h.group, ID: "theirs", Origin: "client/c1"})
		m.cacheSubmitLocked(Submit{Group: h.group, ID: "own", Origin: m.cfg.Self})
		m.handleSnapshotLocked(Snapshot{Group: h.group, Seq: 5, Data: []byte("snapimage")}, &act)
		_, theirs := m.submitCache["theirs"]
		_, own := m.submitCache["own"]
		h.rt.Unlock()
		if theirs || !own {
			t.Errorf("after the install the cache holds theirs: %v, own: %v; want false, true", theirs, own)
		}
	})
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
