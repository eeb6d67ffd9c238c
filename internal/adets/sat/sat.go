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
	"github.com/replobj/replobj/internal/wire"
)

type threadState int

const (
	stReady threadState = iota
	stRunning
	stBlockedLock
	stWaiting
	stNested
	stDone
)

// satThread is a request's thread and SAT's state for it in one allocation.
type satThread struct {
	adets.Thread
	state        threadState
	waiting      bool
	waitSeq      uint64
	timedOut     bool
	pendingReply bool // nested reply arrived before the thread parked
}

type lockState struct {
	owner   wire.LogicalID
	waiters adets.FIFO
}

type condKey struct {
	m adets.MutexID
	c adets.CondID
}

// Option configures the scheduler.
type Option func(*Scheduler)

// Basic restricts the scheduler to the original SAT algorithm: plain locks
// only, no condition variables, no deterministic timeouts.
func Basic() Option {
	return func(s *Scheduler) { s.basic = true }
}

// Scheduler implements adets.Scheduler with the SA(+L) model.
type Scheduler struct {
	env   adets.Env
	reg   *adets.Registry
	basic bool

	active  *adets.Thread
	ready   adets.FIFO
	locks   map[adets.MutexID]*lockState
	conds   map[condKey]*adets.FIFO
	waiters map[wire.LogicalID]*adets.Thread // logical → thread blocked in Wait
	threads map[*adets.Thread]bool
	tos     *adets.Timeouts
	quiesce func(drained bool)
	stopped bool
}

var _ adets.Scheduler = (*Scheduler)(nil)

// New returns an ADETS-SAT scheduler (or basic SAT with the Basic option).
func New(opts ...Option) *Scheduler {
	s := &Scheduler{
		locks:   make(map[adets.MutexID]*lockState),
		conds:   make(map[condKey]*adets.FIFO),
		waiters: make(map[wire.LogicalID]*adets.Thread),
		threads: make(map[*adets.Thread]bool),
	}
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
	s.reg = adets.NewRegistry(env.RT)
	s.tos = adets.NewTimeouts(env)
}

// Stop implements adets.Scheduler: blocked threads are woken and their
// pending operations fail with ErrStopped.
func (s *Scheduler) Stop() {
	rt := s.env.RT
	rt.Lock()
	s.stopped = true
	s.tos.StopAll()
	for t := range s.threads {
		t.Unpark(rt)
	}
	rt.Unlock()
}

func st(t *adets.Thread) *satThread { return t.Sched.(*satThread) }

// Submit implements adets.Scheduler: a new physical thread is created in
// delivery order; callbacks are prioritized so the logical thread the
// object is blocked on can make progress.
func (s *Scheduler) Submit(req adets.Request) {
	rt := s.env.RT
	rt.Lock()
	defer rt.Unlock()
	if s.stopped {
		return
	}
	s.env.Obs.Submitted()
	sth := &satThread{state: stReady}
	t := s.reg.Init(&sth.Thread, "sat", req.Logical, sth)
	s.threads[t] = true
	if req.Callback {
		s.ready.PushFront(t)
	} else {
		s.ready.Push(t)
	}
	s.reg.Spawn(t, func() {
		rt.Lock()
		t.Park(rt) // await first activation
		rt.Unlock()
		if !s.isStopped() {
			req.Exec(t)
		}
		s.threadDone(t)
	})
	s.scheduleLocked()
}

func (s *Scheduler) isStopped() bool {
	s.env.RT.Lock()
	defer s.env.RT.Unlock()
	return s.stopped
}

func (s *Scheduler) threadDone(t *adets.Thread) {
	rt := s.env.RT
	rt.Lock()
	st(t).state = stDone
	delete(s.threads, t)
	s.deactivateLocked(t)
	rt.Unlock()
}

// deactivateLocked releases the activation if t holds it and schedules the
// deterministic successor.
func (s *Scheduler) deactivateLocked(t *adets.Thread) {
	if s.active == t {
		s.active = nil
		s.scheduleLocked()
	}
}

// scheduleLocked activates the next ready thread, if any — the single
// deterministic choice point of the SA model.
func (s *Scheduler) scheduleLocked() {
	if s.stopped || s.active != nil {
		return
	}
	w := s.ready.Pop()
	if w == nil {
		s.checkQuiesceLocked()
		return
	}
	s.active = w
	st(w).state = stRunning
	w.Unpark(s.env.RT)
}

// Quiesce implements adets.Scheduler. The SA model is stable exactly when
// no thread is active and none is ready: every live thread is then blocked
// on a lock, a condition, or a nested reply — all resolvable only by future
// ordered deliveries.
func (s *Scheduler) Quiesce(report func(drained bool)) {
	rt := s.env.RT
	rt.Lock()
	s.quiesce = report
	s.checkQuiesceLocked()
	rt.Unlock()
}

func (s *Scheduler) checkQuiesceLocked() {
	if s.quiesce == nil || s.active != nil || s.ready.Len() > 0 {
		return
	}
	report := s.quiesce
	s.quiesce = nil
	report(len(s.threads) == 0)
}

func (s *Scheduler) lock(m adets.MutexID) *lockState {
	ls, ok := s.locks[m]
	if !ok {
		ls = &lockState{}
		s.locks[m] = ls
	}
	return ls
}

func (s *Scheduler) cond(m adets.MutexID, c adets.CondID) *adets.FIFO {
	k := condKey{m, c}
	q, ok := s.conds[k]
	if !ok {
		q = &adets.FIFO{}
		s.conds[k] = q
	}
	return q
}

// Lock implements adets.Scheduler.
func (s *Scheduler) Lock(t *adets.Thread, m adets.MutexID) error {
	rt := s.env.RT
	rt.Lock()
	defer rt.Unlock()
	if s.stopped {
		return adets.ErrStopped
	}
	ls := s.lock(m)
	if ls.owner == "" {
		ls.owner = t.Logical // uncontended: no scheduling point
		s.env.Obs.Grant(m, string(t.Logical))
		return nil
	}
	var t0 time.Duration
	if s.env.Obs != nil {
		s.env.Obs.Blocked()
		t0 = rt.NowLocked()
	}
	ls.waiters.Push(t)
	st(t).state = stBlockedLock
	s.deactivateLocked(t)
	t.Park(rt)
	if s.stopped {
		s.env.Obs.Unblocked()
		return adets.ErrStopped
	}
	if s.env.Obs != nil {
		s.env.Obs.GrantedAfterBlock(m, string(t.Logical), rt.NowLocked()-t0)
	}
	// Woken ⇒ granted ownership and activated.
	return nil
}

// Unlock implements adets.Scheduler. The unlocker stays active (releasing a
// lock is not a scheduling point); the granted successor becomes ready.
func (s *Scheduler) Unlock(t *adets.Thread, m adets.MutexID) error {
	rt := s.env.RT
	rt.Lock()
	defer rt.Unlock()
	if s.stopped {
		return adets.ErrStopped
	}
	ls := s.lock(m)
	if ls.owner != t.Logical {
		return adets.ErrNotHeld
	}
	s.env.Obs.Unlock(m, string(t.Logical))
	s.releaseLocked(m, ls)
	return nil
}

// releaseLocked hands the mutex to the deterministically-first waiter.
func (s *Scheduler) releaseLocked(m adets.MutexID, ls *lockState) {
	w := ls.waiters.Pop()
	if w == nil {
		ls.owner = ""
		return
	}
	ls.owner = w.Logical
	s.env.Obs.Grant(m, string(w.Logical))
	st(w).state = stReady
	s.ready.Push(w)
	s.scheduleLocked()
}

// Wait implements adets.Scheduler (ADETS-SAT only).
func (s *Scheduler) Wait(t *adets.Thread, m adets.MutexID, c adets.CondID, d time.Duration) (bool, error) {
	if s.basic {
		return false, adets.ErrUnsupported
	}
	rt := s.env.RT
	rt.Lock()
	defer rt.Unlock()
	if s.stopped {
		return false, adets.ErrStopped
	}
	ls := s.lock(m)
	if ls.owner != t.Logical {
		return false, adets.ErrNotHeld
	}
	cst := st(t)
	cst.waiting = true
	cst.timedOut = false
	if d > 0 {
		cst.waitSeq = s.tos.Arm(t, m, c, d)
	}
	s.waiters[t.Logical] = t
	s.cond(m, c).Push(t)
	cst.state = stWaiting
	s.env.Obs.WaitStart(m, c, string(t.Logical))
	s.releaseLocked(m, ls) // wait releases the monitor
	s.deactivateLocked(t)
	t.Park(rt)
	// Woken ⇒ reacquired the mutex (wake path queued us on it) and
	// activated.
	cst.waiting = false
	delete(s.waiters, t.Logical)
	s.tos.Disarm(t)
	if s.stopped {
		return false, adets.ErrStopped
	}
	return cst.timedOut, nil
}

// Notify implements adets.Scheduler (ADETS-SAT only).
func (s *Scheduler) Notify(t *adets.Thread, m adets.MutexID, c adets.CondID) error {
	if s.basic {
		return adets.ErrUnsupported
	}
	rt := s.env.RT
	rt.Lock()
	defer rt.Unlock()
	return s.notifyLocked(t, m, c, false)
}

// NotifyAll implements adets.Scheduler (ADETS-SAT only).
func (s *Scheduler) NotifyAll(t *adets.Thread, m adets.MutexID, c adets.CondID) error {
	if s.basic {
		return adets.ErrUnsupported
	}
	rt := s.env.RT
	rt.Lock()
	defer rt.Unlock()
	if s.stopped {
		return adets.ErrStopped
	}
	ls := s.lock(m)
	if ls.owner != t.Logical {
		return adets.ErrNotHeld
	}
	for _, w := range s.cond(m, c).Drain() {
		s.wakeWaiterLocked(w, m, c, false)
	}
	return nil
}

func (s *Scheduler) notifyLocked(t *adets.Thread, m adets.MutexID, c adets.CondID, timedOut bool) error {
	if s.stopped {
		return adets.ErrStopped
	}
	ls := s.lock(m)
	if ls.owner != t.Logical {
		return adets.ErrNotHeld
	}
	w := s.cond(m, c).Pop()
	if w == nil {
		return nil
	}
	s.wakeWaiterLocked(w, m, c, timedOut)
	return nil
}

// wakeWaiterLocked moves a condition waiter to the mutex entry queue (Java
// semantics: a notified thread must reacquire the monitor before resuming).
func (s *Scheduler) wakeWaiterLocked(w *adets.Thread, m adets.MutexID, c adets.CondID, timedOut bool) {
	wst := st(w)
	wst.timedOut = timedOut
	s.env.Obs.Wake(m, c, string(w.Logical), timedOut)
	ls := s.lock(m)
	if ls.owner == "" {
		ls.owner = w.Logical
		s.env.Obs.Grant(m, string(w.Logical))
		wst.state = stReady
		s.ready.Push(w)
		s.scheduleLocked()
		return
	}
	ls.waiters.Push(w)
	wst.state = stBlockedLock
}

// Yield implements adets.Scheduler (no-op under SA: voluntary preemption of
// the active thread would add scheduling points without concurrency gain).
func (s *Scheduler) Yield(*adets.Thread) {}

// BeginNested implements adets.Scheduler: a scheduling point; the thread
// stays suspended until the totally-ordered reply resumes it.
func (s *Scheduler) BeginNested(t *adets.Thread) {
	rt := s.env.RT
	rt.Lock()
	cst := st(t)
	if cst.pendingReply {
		cst.pendingReply = false
		rt.Unlock()
		return
	}
	cst.state = stNested
	s.deactivateLocked(t)
	t.Park(rt)
	rt.Unlock()
}

// EndNested implements adets.Scheduler.
func (s *Scheduler) EndNested(t *adets.Thread) {
	rt := s.env.RT
	rt.Lock()
	defer rt.Unlock()
	cst := st(t)
	if cst.state != stNested {
		cst.pendingReply = true // reply beat the park (real-time race)
		return
	}
	cst.state = stReady
	s.ready.Push(t)
	s.scheduleLocked()
}

// ViewChanged implements adets.Scheduler (SAT needs no membership info).
func (s *Scheduler) ViewChanged(gcs.View) {}

// HandleOrdered implements adets.Scheduler: deterministic wait timeouts
// arrive here as totally-ordered requests and are executed by a normal
// request-handler thread that first acquires the mutex — keeping the
// timeout-vs-notify race deterministic (paper Section 4.2).
func (s *Scheduler) HandleOrdered(id string, payload any) bool {
	if s.basic {
		return false
	}
	msg, ok := payload.(adets.TimeoutMsg)
	if !ok {
		return false
	}
	s.Submit(adets.Request{
		Logical: wire.LogicalID(id),
		Exec:    func(t *adets.Thread) { s.timeoutExec(t, msg) },
	})
	return true
}

// timeoutExec runs on its own scheduler-managed thread: lock, check the
// wait is still pending with the same sequence number, wake as timed out.
func (s *Scheduler) timeoutExec(t *adets.Thread, msg adets.TimeoutMsg) {
	if err := s.Lock(t, msg.Mutex); err != nil {
		return
	}
	rt := s.env.RT
	rt.Lock()
	w := s.waiters[msg.Target]
	if w != nil {
		wst := st(w)
		if wst.waiting && wst.waitSeq == msg.WaitSeq {
			s.env.Obs.TimeoutFired()
			s.cond(msg.Mutex, msg.Cond).Remove(w)
			s.wakeWaiterLocked(w, msg.Mutex, msg.Cond, true)
		}
	}
	rt.Unlock()
	_ = s.Unlock(t, msg.Mutex)
}

// HandleDirect implements adets.Scheduler.
func (s *Scheduler) HandleDirect(wire.NodeID, any) bool { return false }
