package adets_test

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/replobj/replobj/internal/adets"
	"github.com/replobj/replobj/internal/adets/cc"
	"github.com/replobj/replobj/internal/adets/mat"
	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

// countingRT is the real clock with a count of the goroutines the
// scheduler starts and of those still running.
type countingRT struct {
	*vtime.RealRuntime
	started, live atomic.Int64
}

func (c *countingRT) GoLocked(name string, fn func()) {
	c.started.Add(1)
	c.live.Add(1)
	c.RealRuntime.GoLocked(name, func() {
		defer c.live.Add(-1)
		fn()
	})
}

func startPool(t *testing.T, s adets.Scheduler) *countingRT {
	t.Helper()
	rt := &countingRT{RealRuntime: vtime.Real()}
	self := wire.ReplicaID("g", 0)
	s.Start(adets.Env{RT: rt, Self: self, Peers: []wire.NodeID{self},
		SendPeer: func(wire.NodeID, any) {}, BroadcastOrdered: func(string, any) {}})
	t.Cleanup(rt.Stop)
	return rt
}

// eventually fails the test unless cond holds within five seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("not within 5 s: %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func request(logical wire.LogicalID, exec func(*adets.Thread)) adets.Request {
	return adets.Request{Logical: logical, Classes: []string{"k"}, Exec: exec}
}

var poolKinds = []struct {
	name string
	mk   func() adets.Scheduler
}{
	{"MAT", func() adets.Scheduler { return mat.New() }},
	{"CC", func() adets.Scheduler { return cc.New() }},
}

// TestPoolReusesWorkers: a thousand requests one after another start a
// handful of goroutines, not one each — the worker that ran a request takes
// the next, or, while it is still finishing the last one, another worker
// does — and the process's goroutine count stays where it was after the
// first few. (Two in an unloaded run; the slack is for a loaded machine.)
func TestPoolReusesWorkers(t *testing.T) {
	for _, k := range poolKinds {
		t.Run(k.name, func(t *testing.T) {
			s := k.mk()
			rt := startPool(t, s)
			done := make(chan struct{})
			run := func() {
				s.Submit(request("c", func(*adets.Thread) { done <- struct{}{} }))
				<-done
			}
			for i := 0; i < 10; i++ {
				run()
			}
			base := runtime.NumGoroutine()
			for i := 0; i < 1000; i++ {
				run()
			}
			const slack = 8
			if n := rt.started.Load(); n > slack {
				t.Errorf("1010 sequential requests started %d goroutines, want ≤ %d", n, slack)
			}
			if n := runtime.NumGoroutine(); n > base+slack {
				t.Errorf("goroutines %d after 1000 requests, %d before", n, base)
			}
			s.Stop()
			eventually(t, "every worker ended", func() bool { return rt.live.Load() == 0 })
		})
	}
}

// quiesce asks s for a stable point and returns what it reported.
func quiesce(t *testing.T, s adets.Scheduler) bool {
	t.Helper()
	report := make(chan bool, 1)
	s.Quiesce(func(drained bool) { report <- drained })
	select {
	case drained := <-report:
		return drained
	case <-time.After(5 * time.Second):
		t.Fatal("Quiesce did not report within 5 s")
		return false
	}
}

// TestPoolStopEndsEveryWorker: Stop ends the idle workers at once and a busy
// one when its request returns.
func TestPoolStopEndsEveryWorker(t *testing.T) {
	for _, k := range poolKinds {
		t.Run(k.name, func(t *testing.T) {
			s := k.mk()
			rt := startPool(t, s)
			// Three requests at once (distinct classes, so CC runs them side
			// by side) leave three workers, idle once the scheduler drains.
			var running atomic.Int64
			release := make(chan struct{})
			for _, c := range []string{"a", "b", "c"} {
				s.Submit(adets.Request{Logical: wire.LogicalID(c), Classes: []string{c}, Exec: func(*adets.Thread) {
					running.Add(1)
					<-release
				}})
			}
			eventually(t, "three requests running", func() bool { return running.Load() == 3 })
			close(release)
			if !quiesce(t, s) {
				t.Fatal("not drained after the three requests")
			}
			// One of them takes a request that stays busy across Stop.
			busy := make(chan struct{})
			s.Submit(request("d", func(*adets.Thread) {
				running.Add(1)
				<-busy
			}))
			eventually(t, "the fourth request running", func() bool { return running.Load() == 4 })
			if n := rt.live.Load(); n != 3 {
				t.Fatalf("%d workers before Stop, want 3", n)
			}
			s.Stop()
			eventually(t, "the idle workers ended", func() bool { return rt.live.Load() == 1 })
			close(busy)
			eventually(t, "the busy worker ended", func() bool { return rt.live.Load() == 0 })
		})
	}
}

// TestPoolQueuedTicketHoldsNoWorker: an ADETS-CC ticket queued behind a
// thread parked in a nested invocation has no goroutine and is stable, so
// Quiesce reports not drained without waiting for it; once the reply
// arrives both run and the scheduler drains.
func TestPoolQueuedTicketHoldsNoWorker(t *testing.T) {
	s := cc.New()
	rt := startPool(t, s)
	nested := make(chan *adets.Thread, 1)
	ran := make(chan wire.LogicalID, 2)
	s.Submit(request("a", func(t *adets.Thread) {
		nested <- t
		s.BeginNested(t)
		ran <- t.Logical.Logical
	}))
	s.Submit(request("b", func(t *adets.Thread) { ran <- t.Logical.Logical }))
	if quiesce(t, s) {
		t.Fatal("drained with a thread parked in a nested invocation")
	}
	if n := rt.live.Load(); n != 1 {
		t.Errorf("%d workers for one started ticket and one queued, want 1", n)
	}
	s.EndNested(<-nested)
	if a, b := <-ran, <-ran; a != "a" || b != "b" {
		t.Errorf("ran %s then %s, want a then b", a, b)
	}
	if !quiesce(t, s) {
		t.Error("not drained after both requests")
	}
	s.Stop()
}

// TestPoolStopRetiresQueuedTickets: Stop with a ticket still queued leaves
// no thread behind — the queued ticket never gets a worker to retire it,
// so Stop does. Quiesce reports at once after Stop, and drained once the
// thread that Stop woke has ended.
func TestPoolStopRetiresQueuedTickets(t *testing.T) {
	s := cc.New()
	rt := startPool(t, s)
	parked := make(chan struct{})
	s.Submit(request("a", func(t *adets.Thread) {
		close(parked)
		s.BeginNested(t) // Stop wakes it
	}))
	s.Submit(request("b", func(*adets.Thread) { t.Error("a queued ticket ran after Stop") }))
	<-parked
	s.Stop()
	quiesce(t, s)
	eventually(t, "every worker ended", func() bool { return rt.live.Load() == 0 })
	if !quiesce(t, s) {
		t.Error("not drained after Stop: the queued ticket is still a live thread")
	}
}
