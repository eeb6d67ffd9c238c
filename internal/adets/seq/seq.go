// Package seq implements strictly sequential request execution — the SEQ
// baseline of the paper (Table 1): one request at a time, implicit
// synchronization, no condition variables, no support for external
// interactions. A nested invocation blocks the only thread; a callback into
// the object therefore deadlocks, which is precisely the motivation the
// paper gives for multithreaded strategies (Section 2).
package seq

import (
	"time"

	"github.com/replobj/replobj/internal/adets"
	"github.com/replobj/replobj/internal/gcs"
	"github.com/replobj/replobj/internal/ring"
	"github.com/replobj/replobj/internal/wire"
)

// Scheduler is the sequential baseline.
type Scheduler struct {
	env      adets.Env
	reg      *adets.Registry
	queue    ring.Queue[adets.Request]
	busy     bool
	inNested bool
	stopped  bool
	worker   *adets.Thread
	quiesce  func(drained bool)
}

var _ adets.Scheduler = (*Scheduler)(nil)

// New returns a sequential scheduler.
func New() *Scheduler { return &Scheduler{} }

// Name implements adets.Scheduler.
func (s *Scheduler) Name() string { return "SEQ" }

// Capabilities implements adets.Scheduler.
func (s *Scheduler) Capabilities() adets.Capabilities {
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
	s.queue = ring.Queue[adets.Request]{}
	if s.worker != nil && !s.busy {
		s.worker.Unpark(s.env.RT)
	}
	s.env.RT.Unlock()
}

// Submit implements adets.Scheduler: requests execute one after another in
// delivery order, each to completion.
func (s *Scheduler) Submit(req adets.Request) {
	s.env.RT.Lock()
	defer s.env.RT.Unlock()
	if s.stopped {
		return
	}
	s.env.Obs.Submitted()
	s.queue.Push(req)
	if s.worker == nil {
		s.worker = s.reg.NewThread("seq-worker", "")
		// Busy from birth: the worker drains the queue before it first
		// parks, so a Submit racing with the spawn must not Unpark it — the
		// stale permit would make a later BeginNested return early.
		s.busy = true
		w := s.worker
		s.reg.Spawn(w, func() { s.loop(w) })
		return
	}
	if !s.busy {
		s.worker.Unpark(s.env.RT)
	}
}

func (s *Scheduler) loop(w *adets.Thread) {
	rt := s.env.RT
	rt.Lock()
	for {
		if s.stopped {
			rt.Unlock()
			return
		}
		req, ok := s.queue.Pop()
		if !ok {
			s.busy = false
			s.checkQuiesceLocked()
			w.Park(rt)
			continue
		}
		s.busy = true
		w.Logical = req.Logical
		rt.Unlock()
		s.env.Obs.Exec(string(req.Logical))
		req.Exec(w)
		rt.Lock()
	}
}

// Lock implements adets.Scheduler. With a single thread, mutual exclusion
// is implicit; the operation records nothing.
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

// BeginNested implements adets.Scheduler: the single thread blocks until
// the reply is delivered; no other request makes progress meanwhile — the
// deadlock hazard of the S model the paper describes in Section 2.
func (s *Scheduler) BeginNested(t *adets.Thread) {
	s.env.RT.Lock()
	s.inNested = true
	s.checkQuiesceLocked()
	t.Park(s.env.RT)
	s.inNested = false
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

// Quiesce implements adets.Scheduler. SEQ is stable when its worker is
// parked: idle on an empty queue (drained) or inside a nested invocation
// awaiting the totally-ordered reply (skip).
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
	if !idle && !s.inNested {
		return // worker running or about to: wait for its next park
	}
	report := s.quiesce
	s.quiesce = nil
	report(idle)
}

// HandleOrdered implements adets.Scheduler.
func (s *Scheduler) HandleOrdered(string, any) bool { return false }

// HandleDirect implements adets.Scheduler.
func (s *Scheduler) HandleDirect(wire.NodeID, any) bool { return false }
