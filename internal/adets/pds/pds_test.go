package pds

import (
	"testing"

	"github.com/replobj/replobj/internal/adets"
	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

// White-box tests of the deterministic PDS-2 second-grant conditions
// (evalSecondGrantsLocked): the conditions must depend only on other
// threads' committed state and mutex ownership — never on request timing.

// newBare builds a scheduler with n hand-constructed pool threads in the
// given states, bypassing the worker goroutines entirely.
func newBare(variant Variant, n int) (*Scheduler, *vtime.VirtualRuntime, []*adets.Thread) {
	rt := vtime.Virtual()
	s := New(Config{Variant: variant, PoolSize: n})
	s.env = adets.Env{RT: rt, Self: "g/0", Peers: []wire.NodeID{"g/0"}}
	s.Init(s.env, s)
	threads := make([]*adets.Thread, n)
	rt.Lock()
	for i := 0; i < n; i++ {
		pt := &pdsThread{s: s, state: stRunning, inActive: true}
		t := s.Registry.Init(&pt.Thread, "w", wire.ThreadID{Logical: wire.LogicalID(rune('a' + i))}, pt)
		s.pool = append(s.pool, t)
		threads[i] = t
	}
	rt.Unlock()
	return s, rt, threads
}

func TestSecondGrantRequiresLowerCommitted(t *testing.T) {
	s, rt, th := newBare(PDS2, 2)
	defer rt.Stop()
	rt.Lock()
	defer rt.Unlock()
	// Thread 0: phase-1 granted, still running (uncommitted).
	st(th[0]).got1 = true
	st(th[0]).committed = false
	// Thread 1: phase-1 granted, requests a free second mutex.
	st(th[1]).got1 = true
	st(th[1]).state = stSuspended
	st(th[1]).reqMutex = "m"
	st(th[1]).secondPending = true
	s.evalSecondGrantsLocked()
	if !st(th[1]).secondPending {
		t.Error("second grant given while a lower-ID thread is uncommitted")
	}
	// Thread 0 commits (suspends): now the grant must happen.
	st(th[0]).state = stSuspended
	st(th[0]).committed = true
	s.evalSecondGrantsLocked()
	if st(th[1]).secondPending {
		t.Error("second grant withheld although all lower threads committed")
	}
	if got := s.Mutex("m").Owner; got != th[1].Logical {
		t.Errorf("owner of m = %q, want %q", got, th[1].Logical)
	}
	if !st(th[1]).phase2 || !st(th[1]).committed {
		t.Error("granted thread must enter phase 2 and count as committed")
	}
}

func TestSecondGrantRequiresFreeMutex(t *testing.T) {
	s, rt, th := newBare(PDS2, 2)
	defer rt.Stop()
	rt.Lock()
	defer rt.Unlock()
	st(th[0]).got1 = true
	st(th[0]).committed = true
	st(th[0]).state = stSuspended
	s.Mutex("m").Owner = wire.ThreadID{Logical: "someone-else"}
	st(th[1]).got1 = true
	st(th[1]).state = stSuspended
	st(th[1]).reqMutex = "m"
	st(th[1]).secondPending = true
	s.evalSecondGrantsLocked()
	if !st(th[1]).secondPending {
		t.Error("second grant given for a held mutex")
	}
	// Free it: grant must follow.
	s.Mutex("m").Owner = wire.ThreadID{}
	s.evalSecondGrantsLocked()
	if st(th[1]).secondPending {
		t.Error("second grant withheld for a free mutex")
	}
}

func TestSecondGrantRequiresLowerPhase1(t *testing.T) {
	s, rt, th := newBare(PDS2, 2)
	defer rt.Stop()
	rt.Lock()
	defer rt.Unlock()
	// Thread 0 has no phase-1 grant yet (suspended, eligible).
	st(th[0]).state = stSuspended
	st(th[0]).committed = true // committed but not granted: still blocks
	st(th[1]).got1 = true
	st(th[1]).state = stSuspended
	st(th[1]).reqMutex = "m"
	st(th[1]).secondPending = true
	s.evalSecondGrantsLocked()
	if !st(th[1]).secondPending {
		t.Error("second grant given while a lower thread lacks its phase-1 grant")
	}
}

func TestSecondGrantChainsInIDOrder(t *testing.T) {
	s, rt, th := newBare(PDS2, 3)
	defer rt.Stop()
	rt.Lock()
	defer rt.Unlock()
	// Threads 1 and 2 both pend second grants on distinct free mutexes;
	// thread 0 is committed. Granting 1 commits it, which unblocks 2 in the
	// same evaluation pass.
	st(th[0]).got1 = true
	st(th[0]).committed = true
	st(th[0]).state = stSuspended
	for i, m := range []adets.MutexID{"", "m1", "m2"} {
		if i == 0 {
			continue
		}
		st(th[i]).got1 = true
		st(th[i]).state = stSuspended
		st(th[i]).reqMutex = m
		st(th[i]).secondPending = true
	}
	s.evalSecondGrantsLocked()
	if st(th[1]).secondPending || st(th[2]).secondPending {
		t.Errorf("chained grants incomplete: pending1=%v pending2=%v",
			st(th[1]).secondPending, st(th[2]).secondPending)
	}
}

func TestPDS1NeverGrantsSeconds(t *testing.T) {
	s, rt, th := newBare(PDS1, 2)
	defer rt.Stop()
	rt.Lock()
	defer rt.Unlock()
	st(th[0]).got1 = true
	st(th[0]).committed = true
	st(th[0]).state = stSuspended
	st(th[1]).got1 = true
	st(th[1]).state = stSuspended
	st(th[1]).reqMutex = "m"
	st(th[1]).secondPending = true
	s.evalSecondGrantsLocked()
	if !st(th[1]).secondPending {
		t.Error("PDS-1 must not perform within-round second grants")
	}
}

func TestInactiveAndRetiredThreadsDontBlockSeconds(t *testing.T) {
	s, rt, th := newBare(PDS2, 3)
	defer rt.Stop()
	rt.Lock()
	defer rt.Unlock()
	st(th[0]).inActive = false // e.g. waiting on a condvar, out of the set
	st(th[1]).state = stRetired
	st(th[1]).inActive = false
	st(th[2]).got1 = true
	st(th[2]).state = stSuspended
	st(th[2]).reqMutex = "m"
	st(th[2]).secondPending = true
	s.evalSecondGrantsLocked()
	if st(th[2]).secondPending {
		t.Error("inactive/retired lower threads must not block second grants")
	}
}
