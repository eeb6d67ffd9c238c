package lsa

import (
	"testing"

	"github.com/replobj/replobj/internal/adets"
	"github.com/replobj/replobj/internal/gcs"
	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

// White-box tests of the grant machinery: leader FCFS with logging,
// follower schedule replay, and the promotion rule (finish the published
// schedule first, then grant fresh).

func newBare(self wire.NodeID, leader wire.NodeID) (*Scheduler, *vtime.VirtualRuntime) {
	rt := vtime.Virtual()
	s := New()
	s.env = adets.Env{RT: rt, Self: self, Peers: []wire.NodeID{"g/0", "g/1"}}
	s.Init(s.env, s)
	s.leader = leader
	return s, rt
}

func mkThread(s *Scheduler, rt *vtime.VirtualRuntime, logical wire.LogicalID) *adets.Thread {
	rt.Lock()
	defer rt.Unlock()
	t := s.Registry.Init(new(adets.Thread), "lsa", logical, nil)
	s.Enter(t)
	return t
}

func TestLeaderGrantsFCFSAndLogs(t *testing.T) {
	s, rt := newBare("g/0", "g/0")
	defer rt.Stop()
	a := mkThread(s, rt, "a")
	b := mkThread(s, rt, "b")
	rt.Lock()
	s.requestLocked(a, "m")
	if got := s.Mutex("m").Owner; got != "a" {
		t.Errorf("owner = %q, want a (immediate leader grant)", got)
	}
	s.requestLocked(b, "m") // held: must queue
	if got := s.Mutex("m").Owner; got != "a" {
		t.Errorf("owner = %q after second request", got)
	}
	// Release: b granted next, both grants logged in order.
	s.Mutex("m").Owner = ""
	s.tryGrantLocked("m")
	if got := s.Mutex("m").Owner; got != "b" {
		t.Errorf("owner = %q, want b", got)
	}
	if len(s.pendingLog) != 2 || s.pendingLog[0].L != "a" || s.pendingLog[1].L != "b" {
		t.Errorf("pendingLog = %+v, want [a b] on m", s.pendingLog)
	}
	rt.Unlock()
}

func TestFollowerWaitsForSchedule(t *testing.T) {
	s, rt := newBare("g/1", "g/0") // follower
	defer rt.Stop()
	a := mkThread(s, rt, "a")
	b := mkThread(s, rt, "b")
	rt.Lock()
	// Requests arrive in the "wrong" order locally; the schedule decides.
	s.requestLocked(b, "m")
	s.requestLocked(a, "m")
	if got := s.Mutex("m").Owner; got != "" {
		t.Errorf("follower granted %q without a schedule", got)
	}
	// Apply the leader's table: a first, then b.
	s.lock("m").schedule = append(s.lock("m").schedule, "a", "b")
	s.tryGrantLocked("m")
	if got := s.Mutex("m").Owner; got != "a" {
		t.Errorf("owner = %q, want a (schedule order)", got)
	}
	if len(s.pendingLog) != 0 {
		t.Errorf("follower logged grants: %+v", s.pendingLog)
	}
	s.Mutex("m").Owner = ""
	s.tryGrantLocked("m")
	if got := s.Mutex("m").Owner; got != "b" {
		t.Errorf("owner = %q, want b", got)
	}
	rt.Unlock()
}

func TestFollowerBlocksOnScheduleForAbsentThread(t *testing.T) {
	s, rt := newBare("g/1", "g/0")
	defer rt.Stop()
	b := mkThread(s, rt, "b")
	a := mkThread(s, rt, "a")
	rt.Lock()
	s.requestLocked(b, "m")
	// Schedule says "a" goes first, but a has not requested locally yet:
	// b must keep waiting (the grant order is sacrosanct).
	s.lock("m").schedule = append(s.lock("m").schedule, "a", "b")
	s.tryGrantLocked("m")
	if got := s.Mutex("m").Owner; got != "" {
		t.Errorf("owner = %q; follower must wait for thread a", got)
	}
	s.requestLocked(a, "m")
	if got := s.Mutex("m").Owner; got != "a" {
		t.Errorf("owner = %q, want a once it arrives", got)
	}
	rt.Unlock()
}

func TestPromotionFinishesScheduleThenGrantsFresh(t *testing.T) {
	s, rt := newBare("g/1", "g/0") // starts as follower
	defer rt.Stop()
	a := mkThread(s, rt, "a")
	b := mkThread(s, rt, "b")
	c := mkThread(s, rt, "c")
	rt.Lock()
	s.requestLocked(a, "m")
	s.requestLocked(b, "m")
	s.requestLocked(c, "m")
	// Published schedule covers only a.
	s.lock("m").schedule = append(s.lock("m").schedule, "a")
	s.tryGrantLocked("m")
	if got := s.Mutex("m").Owner; got != "a" {
		t.Errorf("owner = %q", got)
	}
	rt.Unlock()

	// Promote (in-stream view change).
	s.ViewChanged(viewWith("g/1", "g/2"))

	rt.Lock()
	// After a releases, the new leader grants the remaining requests
	// fresh, logging them.
	s.Mutex("m").Owner = ""
	s.tryGrantLocked("m")
	owner := s.Mutex("m").Owner
	if owner != "b" && owner != "c" {
		t.Errorf("owner = %q, want one of the pending requesters", owner)
	}
	if len(s.pendingLog) != 1 || s.pendingLog[0].M != "m" {
		t.Errorf("pendingLog = %+v, want one fresh grant", s.pendingLog)
	}
	rt.Unlock()
}

func viewWith(members ...wire.NodeID) gcs.View {
	return gcs.View{Epoch: 1, Members: members}
}
