// Package sat implements the single-active-thread strategies of the paper:
//
//   - Basic "SAT" (Zhao et al., Section 3.2): multiple physical threads may
//     exist, but only one is active at a time; the active thread runs until
//     it blocks (unavailable lock, nested invocation) or terminates, and
//     the successor is chosen deterministically. Plain locks only.
//
//   - "ADETS-SAT" (Section 3.2): the same core plus the native Java
//     synchronization model — reentrant locks (via the framework's
//     Reentrancy layer), condition variables with deterministic wait/notify
//     queues, time-bounded waits handled through totally-ordered timeout
//     requests, and callback execution under logical-thread identity.
//
// The SA(+L) invariant: at every instant at most one thread executes object
// code; scheduling points are lock blocking, condition waits, nested
// invocations, and thread termination.
package sat

import (
	"time"

	"github.com/replobj/replobj/internal/adets"
	"github.com/replobj/replobj/internal/gcs"
)

// Option configures the scheduler.
type Option func(*Scheduler)

// Basic restricts the scheduler to the original SAT algorithm: plain locks
// only, no condition variables, no deterministic timeouts.
func Basic() Option {
	return func(s *Scheduler) { s.basic = true }
}

// Scheduler implements adets.Scheduler with the SA(+L) model. Mutexes,
// condition variables, timeouts, nested-invocation parking, Stop and Quiesce
// are the embedded Monitor's; SAT adds the activation: which one thread runs.
type Scheduler struct {
	adets.Monitor
	env   adets.Env
	basic bool

	active *adets.Thread
	ready  adets.FIFO
}

var _ adets.Strategy = (*Scheduler)(nil)

// thread is a request's thread and the job a pooled worker runs for it.
type thread struct {
	adets.Thread
	s    *Scheduler
	exec func(*adets.Thread)
}

// Run implements adets.Job: first activation, request, end (scheduling point).
func (t *thread) Run() {
	t.Park(t.s.env.RT)
	t.s.Execute(&t.Thread, t.exec)
	t.s.Blocked(&t.Thread)
	t.s.Exit(&t.Thread)
}

// New returns an ADETS-SAT scheduler (or basic SAT with the Basic option).
func New(opts ...Option) *Scheduler {
	s := &Scheduler{}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Name implements adets.Scheduler.
func (s *Scheduler) Name() string {
	if s.basic {
		return "SAT"
	}
	return "ADETS-SAT"
}

// Capabilities implements adets.Scheduler.
func (s *Scheduler) Capabilities() adets.Capabilities {
	if s.basic {
		return adets.Capabilities{
			Coordination:      "Locks",
			DeadlockFree:      "NI+CB",
			Deployment:        "interception",
			Multithreading:    "SA",
			NestedInvocations: true,
			Callbacks:         true,
		}
	}
	return adets.Capabilities{
		Coordination:      "Java",
		DeadlockFree:      "NI+CB",
		Deployment:        "transformation",
		Multithreading:    "SA+L",
		ReentrantLocks:    true,
		ConditionVars:     true,
		TimedWait:         true,
		NestedInvocations: true,
		Callbacks:         true,
	}
}

// Start implements adets.Scheduler.
func (s *Scheduler) Start(env adets.Env) {
	s.env = env
	s.Init(env, s)
}

// Submit implements adets.Scheduler: a new physical thread is created in
// delivery order; callbacks are prioritized so the logical thread the
// object is blocked on can make progress.
func (s *Scheduler) Submit(req adets.Request) {
	rt := s.env.RT
	rt.Lock()
	defer rt.Unlock()
	if s.Stopped() {
		return
	}
	s.env.Obs.Submitted()
	th := &thread{s: s, exec: req.Exec}
	t := s.Registry.Init(&th.Thread, "sat", req.Thread(), nil)
	s.Enter(t)
	if req.Callback {
		s.ready.PushFront(t)
	} else {
		s.ready.Push(t)
	}
	s.Registry.Start(th)
	s.scheduleLocked()
}

// scheduleLocked activates the next ready thread, if any — the single
// deterministic choice point of the SA model.
func (s *Scheduler) scheduleLocked() {
	if s.Stopped() || s.active != nil {
		return
	}
	if w := s.ready.Pop(); w != nil {
		s.active = w
		w.Unpark(s.env.RT)
	}
}

// Runnable implements adets.Strategy: the thread joins the ready queue and
// runs when the activation reaches it.
func (s *Scheduler) Runnable(t *adets.Thread) {
	s.ready.Push(t)
	s.scheduleLocked()
}

// Blocked implements adets.Strategy: every block (and a thread's end) is a
// scheduling point — t gives the activation up and the deterministic
// successor gets it.
func (s *Scheduler) Blocked(t *adets.Thread) {
	if s.active == t {
		s.active = nil
		s.scheduleLocked()
	}
}

// Stable implements adets.Strategy. A thread that is not parked in the
// monitor is active or ready, and the activation reaches every ready thread
// without a further delivery; so the SA model is stable exactly when every
// live thread is blocked on a lock, a condition or a nested reply.
func (s *Scheduler) Stable(t *adets.Thread) bool { return t.Parked() != adets.NotParked }

// Wait implements adets.Scheduler (ADETS-SAT only).
func (s *Scheduler) Wait(t *adets.Thread, m adets.MutexID, c adets.CondID, d time.Duration) (bool, error) {
	if s.basic {
		return false, adets.ErrUnsupported
	}
	return s.Monitor.Wait(t, m, c, d)
}

// Notify implements adets.Scheduler (ADETS-SAT only).
func (s *Scheduler) Notify(t *adets.Thread, m adets.MutexID, c adets.CondID) error {
	if s.basic {
		return adets.ErrUnsupported
	}
	return s.Monitor.Notify(t, m, c)
}

// NotifyAll implements adets.Scheduler (ADETS-SAT only).
func (s *Scheduler) NotifyAll(t *adets.Thread, m adets.MutexID, c adets.CondID) error {
	if s.basic {
		return adets.ErrUnsupported
	}
	return s.Monitor.NotifyAll(t, m, c)
}

// HandleOrdered implements adets.Scheduler: deterministic wait timeouts
// arrive here as totally-ordered requests and are executed by a normal
// request-handler thread that first acquires the mutex — keeping the
// timeout-vs-notify race deterministic (paper Section 4.2).
func (s *Scheduler) HandleOrdered(id string, payload any) bool {
	return !s.basic && s.Monitor.HandleOrdered(id, payload)
}

// Yield implements adets.Scheduler (no-op under SA: voluntary preemption of
// the active thread would add scheduling points without concurrency gain).
func (s *Scheduler) Yield(*adets.Thread) {}

// ViewChanged implements adets.Scheduler (SAT needs no membership info).
func (s *Scheduler) ViewChanged(gcs.View) {}
