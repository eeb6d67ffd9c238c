// Package seq implements the two sequential strategies of the paper's
// Table 1, one worker between them.
//
// SEQ (New) is the baseline: one request at a time, implicit synchronization,
// no condition variables, no support for external interactions. A nested
// invocation blocks the only thread; a callback into the object therefore
// deadlocks, which is precisely the motivation the paper gives for
// multithreaded strategies (Section 2).
//
// SL (NewSL) is the single-logical-thread model pioneered by the Eternal
// middleware (Section 3.2): execution is sequential, but nested invocations
// are tagged with the originating logical thread, so a callback — a request
// whose logical thread matches the one currently blocked in a nested
// invocation — is recognized and executed on an additional physical thread
// instead of deadlocking.
package seq

import (
	"time"

	"github.com/replobj/replobj/internal/adets"
	"github.com/replobj/replobj/internal/gcs"
	"github.com/replobj/replobj/internal/ring"
	"github.com/replobj/replobj/internal/wire"
)

// Scheduler is the sequential worker.
type Scheduler struct {
	env          adets.Env
	reg          *adets.Registry
	sl           bool // callbacks run on extra threads
	queue        ring.Queue[adets.Request]
	busy         bool
	workerNested bool
	cbLive       int // live callback threads
	cbBlocked    int // callback threads parked in a nested invocation
	stopped      bool
	worker       *adets.Thread
	quiesce      func(drained bool)
}

var _ adets.Scheduler = (*Scheduler)(nil)

// thread is the sequential worker's record, or an SL callback's (exec set).
type thread struct {
	adets.Thread
	s    *Scheduler
	exec func(*adets.Thread)
}

// New returns a SEQ scheduler.
func New() *Scheduler { return &Scheduler{} }

// NewSL returns an Eternal-style SL scheduler.
func NewSL() *Scheduler { return &Scheduler{sl: true} }

// Name implements adets.Scheduler.
func (s *Scheduler) Name() string {
	if s.sl {
		return "Eternal"
	}
	return "SEQ"
}

// Capabilities implements adets.Scheduler.
func (s *Scheduler) Capabilities() adets.Capabilities {
	if s.sl {
		return adets.Capabilities{
			Coordination:   "implicit",
			DeadlockFree:   "CB",
			Deployment:     "interception",
			Multithreading: "SL",
			Callbacks:      true,
		}
	}
	return adets.Capabilities{
		Coordination:   "implicit",
		DeadlockFree:   "NO",
		Deployment:     "-",
		Multithreading: "S",
	}
}

// Start implements adets.Scheduler.
func (s *Scheduler) Start(env adets.Env) {
	s.env = env
	s.reg = adets.NewRegistry(env.RT)
}

// Stop implements adets.Scheduler.
func (s *Scheduler) Stop() {
	s.env.RT.Lock()
	s.stopped = true
	s.reg.Stop()
	s.queue = ring.Queue[adets.Request]{}
	if s.worker != nil && !s.busy {
		s.worker.Unpark(s.env.RT)
	}
	s.env.RT.Unlock()
}

// Submit implements adets.Scheduler: requests execute one after another in
// delivery order, each to completion. Under SL a callback runs immediately on
// an extra physical thread under the same logical identity.
func (s *Scheduler) Submit(req adets.Request) {
	s.env.RT.Lock()
	defer s.env.RT.Unlock()
	if s.stopped {
		return
	}
	s.env.Obs.Submitted()
	if s.sl && req.Callback {
		cb := &thread{s: s, exec: req.Exec}
		s.reg.Init(&cb.Thread, "seq-callback", req.Thread(), nil)
		s.cbLive++
		s.reg.Start(cb)
		return
	}
	s.queue.Push(req)
	if s.worker == nil {
		w := &thread{s: s}
		s.worker = s.reg.Init(&w.Thread, "seq-worker", wire.ThreadID{}, nil)
		// Busy from birth: the worker drains the queue before it first
		// parks, so a Submit racing with the start must not Unpark it — the
		// stale permit would make a later BeginNested return early.
		s.busy = true
		s.reg.Start(w)
		return
	}
	if !s.busy {
		// Claim the worker as the spawn path does: a second Submit before
		// it runs must not unpark it again (see adets.Thread).
		s.busy = true
		s.worker.Unpark(s.env.RT)
	}
}

// Run implements adets.Job: an SL callback runs its request, the worker
// every request in delivery order until Stop.
func (w *thread) Run() {
	s, rt := w.s, w.s.env.RT
	if w.exec != nil {
		rt.Unlock()
		w.exec(&w.Thread)
		rt.Lock()
		s.cbLive--
		s.checkQuiesceLocked()
		return
	}
	for !s.stopped {
		req, ok := s.queue.Pop()
		if !ok {
			s.busy = false
			s.checkQuiesceLocked()
			w.Park(rt)
			continue
		}
		s.busy = true
		w.Logical = req.Thread()
		rt.Unlock()
		s.env.Obs.Exec(req.Thread())
		req.Exec(&w.Thread)
		rt.Lock()
	}
}

// Lock implements adets.Scheduler. With a single thread, mutual exclusion
// is implicit; the operation records nothing. Within one logical thread,
// callback and originator never run simultaneously either (the originator is
// blocked in the nested invocation while the callback runs).
func (s *Scheduler) Lock(*adets.Thread, adets.MutexID) error { return nil }

// Unlock implements adets.Scheduler.
func (s *Scheduler) Unlock(*adets.Thread, adets.MutexID) error { return nil }

// Wait implements adets.Scheduler: unsupported — the single thread waiting
// on a condition variable could never be notified. Object code falls back
// to polling, as the paper's evaluation does (Section 5.5).
func (s *Scheduler) Wait(*adets.Thread, adets.MutexID, adets.CondID, time.Duration) (bool, error) {
	return false, adets.ErrUnsupported
}

// Notify implements adets.Scheduler (unsupported).
func (s *Scheduler) Notify(*adets.Thread, adets.MutexID, adets.CondID) error {
	return adets.ErrUnsupported
}

// NotifyAll implements adets.Scheduler (unsupported).
func (s *Scheduler) NotifyAll(*adets.Thread, adets.MutexID, adets.CondID) error {
	return adets.ErrUnsupported
}

// Yield implements adets.Scheduler (no-op: there is nothing to yield to).
func (s *Scheduler) Yield(*adets.Thread) {}

// BeginNested implements adets.Scheduler: the thread blocks until the reply
// is delivered; no other request makes progress meanwhile — the deadlock
// hazard of the S model the paper describes in Section 2 — except, under SL,
// the callbacks the invoked service issues.
func (s *Scheduler) BeginNested(t *adets.Thread) {
	s.env.RT.Lock()
	isWorker := t == s.worker
	if isWorker {
		s.workerNested = true
	} else {
		s.cbBlocked++
	}
	s.checkQuiesceLocked()
	t.Park(s.env.RT)
	if isWorker {
		s.workerNested = false
	} else {
		s.cbBlocked--
	}
	s.env.RT.Unlock()
}

// EndNested implements adets.Scheduler.
func (s *Scheduler) EndNested(t *adets.Thread) {
	s.env.RT.Lock()
	t.Unpark(s.env.RT)
	s.env.RT.Unlock()
}

// ViewChanged implements adets.Scheduler (membership is irrelevant to SEQ).
func (s *Scheduler) ViewChanged(gcs.View) {}

// Quiesce implements adets.Scheduler. The worker is stable when it is
// parked: idle on an empty queue (drained) or inside a nested invocation
// awaiting the totally-ordered reply (skip); every callback thread must be
// finished or itself parked in a nested invocation.
func (s *Scheduler) Quiesce(report func(drained bool)) {
	s.env.RT.Lock()
	s.quiesce = report
	s.checkQuiesceLocked()
	s.env.RT.Unlock()
}

func (s *Scheduler) checkQuiesceLocked() {
	if s.quiesce == nil {
		return
	}
	idle := !s.busy && s.queue.Len() == 0
	if !idle && !s.workerNested || s.cbBlocked != s.cbLive {
		return // something is running or about to: wait for its next park
	}
	report := s.quiesce
	s.quiesce = nil
	report(idle && s.cbLive == 0)
}

// HandleOrdered implements adets.Scheduler.
func (s *Scheduler) HandleOrdered(string, any) bool { return false }
