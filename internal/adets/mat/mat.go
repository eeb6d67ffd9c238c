// Package mat implements ADETS-MAT (paper Sections 3.2 and 5): true
// multithreading with a deterministic primary-token discipline.
//
// Every request gets its own physical thread that starts running
// immediately and concurrently with all others (the MA model). Determinism
// comes from a single rule: only the *primary* thread — the head of a
// succession queue ordered by totally-ordered events — may acquire mutex
// locks. The primary keeps its primacy while it computes; it passes it on
// at scheduling points only: blocking on a held lock, waiting on a
// condition variable, issuing a nested invocation, terminating, or an
// explicit Yield (the paper's suggested remedy for the serializing
// state-update-then-compute pattern, Section 5.3).
//
// Consequences measured in the paper and reproduced by the benchmarks:
// compute-then-lock patterns parallelize almost perfectly (Fig. 4b), while
// lock-compute-unlock and lock-unlock-compute serialize exactly like SAT
// (Figs. 4c, 4d), because the primary holds the token through its trailing
// computation.
package mat

import (
	"github.com/replobj/replobj/internal/adets"
	"github.com/replobj/replobj/internal/gcs"
)

// matThread is a request's thread and MAT's state for it in one allocation,
// and the job a pooled worker runs for it.
type matThread struct {
	adets.Thread
	wantToken   bool // parked in Lock until the token reaches it
	noMoreLocks bool
	s           *Scheduler
	exec        func(*adets.Thread)
}

// Run implements adets.Job: the request, then the end, a scheduling point.
func (mt *matThread) Run() {
	mt.s.Execute(&mt.Thread, mt.exec)
	mt.s.Blocked(&mt.Thread)
	mt.s.Exit(&mt.Thread)
}

// Option configures the scheduler.
type Option func(*Scheduler)

// WithYield controls whether Yield is honoured (default true). Disabling
// it reproduces the unmodified algorithm for the ablation benchmarks.
func WithYield(enabled bool) Option {
	return func(s *Scheduler) { s.yieldEnabled = enabled }
}

// Scheduler implements adets.Scheduler with the MA primary-token model.
// Mutexes, condition variables, timeouts, nested-invocation parking, Stop and
// Quiesce are the embedded Monitor's; MAT adds the token: who may lock.
type Scheduler struct {
	adets.Monitor
	env          adets.Env
	yieldEnabled bool

	succession adets.FIFO // head holds the primary token
}

var (
	_ adets.Strategy      = (*Scheduler)(nil)
	_ adets.LockPredictor = (*Scheduler)(nil)
)

// New returns an ADETS-MAT scheduler.
func New(opts ...Option) *Scheduler {
	s := &Scheduler{yieldEnabled: true}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Name implements adets.Scheduler.
func (s *Scheduler) Name() string { return "ADETS-MAT" }

// Capabilities implements adets.Scheduler.
func (s *Scheduler) Capabilities() adets.Capabilities {
	return adets.Capabilities{
		Coordination:      "Java",
		DeadlockFree:      "NI+CB",
		Deployment:        "transformation",
		Multithreading:    "MA",
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

func st(t *adets.Thread) *matThread { return t.Sched.(*matThread) }

// Submit implements adets.Scheduler: the thread starts immediately as a
// secondary; its succession position is fixed by delivery order (callbacks
// jump to the head so the blocked chain can progress).
func (s *Scheduler) Submit(req adets.Request) {
	rt := s.env.RT
	rt.Lock()
	defer rt.Unlock()
	if s.Stopped() {
		return
	}
	s.env.Obs.Submitted()
	mt := &matThread{s: s, exec: req.Exec}
	t := s.Registry.Init(&mt.Thread, "mat", req.Thread(), mt)
	s.Enter(t)
	if req.Callback {
		s.succession.PushFront(t)
	} else {
		s.succession.Push(t)
	}
	s.Registry.Start(mt)
}

// Blocked implements adets.Strategy: every block (and a thread's end) is a
// scheduling point — t leaves the token order; if it was the primary, the
// token moves to the next thread.
func (s *Scheduler) Blocked(t *adets.Thread) {
	wasHead := s.succession.Peek() == t
	s.succession.Remove(t)
	if wasHead {
		s.advanceTokenLocked()
	}
}

// advanceTokenLocked wakes the new primary if it is parked waiting for the
// token.
func (s *Scheduler) advanceTokenLocked() {
	h := s.succession.Peek()
	if h == nil {
		return
	}
	hst := st(h)
	if hst.wantToken {
		hst.wantToken = false // cleared by the waker to avoid double unpark
		h.Unpark(s.env.RT)
	}
}

// Runnable implements adets.Strategy: a granted thread (or one whose nested
// reply arrived — a totally-ordered event, like the unlock that grants)
// resumes immediately as a secondary, re-entering the token order at the
// tail.
func (s *Scheduler) Runnable(t *adets.Thread) {
	s.succession.Push(t)
	t.Unpark(s.env.RT)
}

// Stable implements adets.Strategy. MAT is stable when every live thread is
// blocked on a lock, a condition variable, or a nested reply: a thread not
// parked in the monitor is executing or awaits the token, and token movement
// needs no future delivery.
func (s *Scheduler) Stable(t *adets.Thread) bool { return t.Parked() != adets.NotParked }

// NoMoreLocks implements adets.LockPredictor: the thread leaves the token
// order for good — successors acquire locks without waiting for its
// remaining (lock-free) computation. This subsumes Yield: a yielded thread
// re-enters at the tail, a declared one steps aside entirely.
func (s *Scheduler) NoMoreLocks(t *adets.Thread) {
	rt := s.env.RT
	rt.Lock()
	defer rt.Unlock()
	if s.Stopped() {
		return
	}
	st(t).noMoreLocks = true
	s.Blocked(t)
}

// Lock implements adets.Scheduler: only the primary may acquire. An
// uncontended acquisition keeps the token; blocking on a held mutex passes
// it on and the thread resumes as a secondary when granted. The per-lock
// grant order equals token-acquisition order, so it is deterministic.
func (s *Scheduler) Lock(t *adets.Thread, m adets.MutexID) error {
	rt := s.env.RT
	rt.Lock()
	defer rt.Unlock()
	mst := st(t)
	if mst.noMoreLocks {
		return adets.ErrLockAfterDeclaration
	}
	for s.succession.Peek() != t && !s.Stopped() {
		// Not primary: park until the token reaches us.
		mst.wantToken = true
		t.Park(rt)
	}
	return s.Acquire(t, m)
}

// Yield implements adets.Scheduler: an explicit scheduling point — the
// primary moves to the tail of the token order so successors can acquire
// locks while this thread keeps computing as a secondary (Section 5.3).
func (s *Scheduler) Yield(t *adets.Thread) {
	if !s.yieldEnabled {
		return
	}
	rt := s.env.RT
	rt.Lock()
	defer rt.Unlock()
	if s.Stopped() || s.succession.Peek() != t {
		return
	}
	s.succession.Remove(t)
	s.succession.Push(t)
	s.advanceTokenLocked()
}

// ViewChanged implements adets.Scheduler (MAT needs no membership info —
// one of its advantages over LSA, Section 5.6).
func (s *Scheduler) ViewChanged(gcs.View) {}
