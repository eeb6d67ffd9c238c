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
	"time"

	"github.com/replobj/replobj/internal/adets"
	"github.com/replobj/replobj/internal/gcs"
	"github.com/replobj/replobj/internal/wire"
)

type threadState int

const (
	stRunning threadState = iota
	stAwaitToken
	stBlockedLock
	stWaiting
	stNested
	stDone
)

// matThread is a request's thread and MAT's state for it in one allocation.
type matThread struct {
	adets.Thread
	state        threadState
	wantToken    bool
	waiting      bool
	waitSeq      uint64
	timedOut     bool
	pendingReply bool
	noMoreLocks  bool
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

// WithYield controls whether Yield is honoured (default true). Disabling
// it reproduces the unmodified algorithm for the ablation benchmarks.
func WithYield(enabled bool) Option {
	return func(s *Scheduler) { s.yieldEnabled = enabled }
}

// Scheduler implements adets.Scheduler with the MA primary-token model.
type Scheduler struct {
	env          adets.Env
	reg          *adets.Registry
	yieldEnabled bool

	succession adets.FIFO // head holds the primary token
	locks      map[adets.MutexID]*lockState
	conds      map[condKey]*adets.FIFO
	waiters    map[wire.LogicalID]*adets.Thread
	threads    map[*adets.Thread]bool
	tos        *adets.Timeouts
	stopped    bool
	quiesce    func(drained bool)
}

var (
	_ adets.Scheduler     = (*Scheduler)(nil)
	_ adets.LockPredictor = (*Scheduler)(nil)
)

// New returns an ADETS-MAT scheduler.
func New(opts ...Option) *Scheduler {
	s := &Scheduler{
		yieldEnabled: true,
		locks:        make(map[adets.MutexID]*lockState),
		conds:        make(map[condKey]*adets.FIFO),
		waiters:      make(map[wire.LogicalID]*adets.Thread),
		threads:      make(map[*adets.Thread]bool),
	}
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
	s.reg = adets.NewRegistry(env.RT)
	s.tos = adets.NewTimeouts(env)
}

// Stop implements adets.Scheduler.
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

func st(t *adets.Thread) *matThread { return t.Sched.(*matThread) }

// Submit implements adets.Scheduler: the thread starts immediately as a
// secondary; its succession position is fixed by delivery order (callbacks
// jump to the head so the blocked chain can progress).
func (s *Scheduler) Submit(req adets.Request) {
	rt := s.env.RT
	rt.Lock()
	defer rt.Unlock()
	if s.stopped {
		return
	}
	s.env.Obs.Submitted()
	mt := &matThread{state: stRunning}
	t := s.reg.Init(&mt.Thread, "mat", req.Logical, mt)
	s.threads[t] = true
	if req.Callback {
		s.succession.PushFront(t)
	} else {
		s.succession.Push(t)
	}
	s.reg.Spawn(t, func() {
		if !s.isStopped() {
			req.Exec(t)
		}
		s.threadDone(t)
	})
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
	s.leaveSuccessionLocked(t)
	s.checkQuiesceLocked()
	rt.Unlock()
}

// leaveSuccessionLocked removes t from the token order; if it was the
// primary, the token moves to the next thread.
func (s *Scheduler) leaveSuccessionLocked(t *adets.Thread) {
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

// NoMoreLocks implements adets.LockPredictor: the thread leaves the token
// order for good — successors acquire locks without waiting for its
// remaining (lock-free) computation. This subsumes Yield: a yielded thread
// re-enters at the tail, a declared one steps aside entirely.
func (s *Scheduler) NoMoreLocks(t *adets.Thread) {
	rt := s.env.RT
	rt.Lock()
	defer rt.Unlock()
	if s.stopped {
		return
	}
	mst := st(t)
	mst.noMoreLocks = true
	s.leaveSuccessionLocked(t)
}

// Lock implements adets.Scheduler: only the primary may acquire. An
// uncontended acquisition keeps the token; blocking on a held mutex passes
// it on and the thread resumes as a secondary when granted.
func (s *Scheduler) Lock(t *adets.Thread, m adets.MutexID) error {
	rt := s.env.RT
	rt.Lock()
	defer rt.Unlock()
	mst := st(t)
	if mst.noMoreLocks {
		return adets.ErrLockAfterDeclaration
	}
	for {
		if s.stopped {
			return adets.ErrStopped
		}
		if s.succession.Peek() == t {
			ls := s.lock(m)
			if ls.owner == "" {
				ls.owner = t.Logical // acquire; remain primary
				s.env.Obs.Grant(m, string(t.Logical))
				return nil
			}
			// Held by a blocked thread: enqueue, pass the token on. The
			// per-lock grant order equals token-acquisition order, so it is
			// deterministic.
			var t0 time.Duration
			if s.env.Obs != nil {
				s.env.Obs.Blocked()
				t0 = rt.NowLocked()
			}
			ls.waiters.Push(t)
			mst.state = stBlockedLock
			s.leaveSuccessionLocked(t)
			s.checkQuiesceLocked()
			t.Park(rt)
			if s.stopped {
				s.env.Obs.Unblocked()
				return adets.ErrStopped
			}
			if s.env.Obs != nil {
				s.env.Obs.GrantedAfterBlock(m, string(t.Logical), rt.NowLocked()-t0)
			}
			return nil // grant path set ownership and re-queued us
		}
		// Not primary: park until the token reaches us.
		mst.state = stAwaitToken
		mst.wantToken = true
		t.Park(rt)
		mst.state = stRunning
	}
}

// Unlock implements adets.Scheduler: not a scheduling point; the granted
// successor resumes immediately as a secondary, re-entering the token order
// at the tail.
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

func (s *Scheduler) releaseLocked(m adets.MutexID, ls *lockState) {
	w := ls.waiters.Pop()
	if w == nil {
		ls.owner = ""
		return
	}
	ls.owner = w.Logical
	s.env.Obs.Grant(m, string(w.Logical))
	st(w).state = stRunning
	s.succession.Push(w)
	w.Unpark(s.env.RT)
}

// Wait implements adets.Scheduler: a scheduling point; the monitor is
// released and the thread leaves the token order until notified (or timed
// out deterministically) and re-granted the mutex.
func (s *Scheduler) Wait(t *adets.Thread, m adets.MutexID, c adets.CondID, d time.Duration) (bool, error) {
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
	mst := st(t)
	mst.waiting = true
	mst.timedOut = false
	if d > 0 {
		mst.waitSeq = s.tos.Arm(t, m, c, d)
	}
	s.waiters[t.Logical] = t
	s.cond(m, c).Push(t)
	mst.state = stWaiting
	s.env.Obs.WaitStart(m, c, string(t.Logical))
	s.releaseLocked(m, ls)
	s.leaveSuccessionLocked(t)
	s.checkQuiesceLocked()
	t.Park(rt)
	mst.waiting = false
	delete(s.waiters, t.Logical)
	s.tos.Disarm(t)
	if s.stopped {
		return false, adets.ErrStopped
	}
	return mst.timedOut, nil
}

// Notify implements adets.Scheduler.
func (s *Scheduler) Notify(t *adets.Thread, m adets.MutexID, c adets.CondID) error {
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
	if w := s.cond(m, c).Pop(); w != nil {
		s.wakeWaiterLocked(w, m, c, false)
	}
	return nil
}

// NotifyAll implements adets.Scheduler.
func (s *Scheduler) NotifyAll(t *adets.Thread, m adets.MutexID, c adets.CondID) error {
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

// wakeWaiterLocked queues a woken condition waiter on the mutex entry
// queue; the caller holds the mutex, so the waiter resumes at a later
// deterministic unlock.
func (s *Scheduler) wakeWaiterLocked(w *adets.Thread, m adets.MutexID, c adets.CondID, timedOut bool) {
	wst := st(w)
	wst.timedOut = timedOut
	s.env.Obs.Wake(m, c, string(w.Logical), timedOut)
	ls := s.lock(m)
	if ls.owner == "" {
		ls.owner = w.Logical
		s.env.Obs.Grant(m, string(w.Logical))
		wst.state = stRunning
		s.succession.Push(w)
		w.Unpark(s.env.RT)
		return
	}
	ls.waiters.Push(w)
	wst.state = stBlockedLock
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
	if s.stopped || s.succession.Peek() != t {
		return
	}
	s.succession.Remove(t)
	s.succession.Push(t)
	s.advanceTokenLocked()
}

// BeginNested implements adets.Scheduler: a scheduling point.
func (s *Scheduler) BeginNested(t *adets.Thread) {
	rt := s.env.RT
	rt.Lock()
	mst := st(t)
	if mst.pendingReply {
		mst.pendingReply = false
		rt.Unlock()
		return
	}
	mst.state = stNested
	s.leaveSuccessionLocked(t)
	s.checkQuiesceLocked()
	t.Park(rt)
	rt.Unlock()
}

// EndNested implements adets.Scheduler: the reply is a totally-ordered
// event, so re-entering the token order here is deterministic.
func (s *Scheduler) EndNested(t *adets.Thread) {
	rt := s.env.RT
	rt.Lock()
	defer rt.Unlock()
	mst := st(t)
	if mst.state != stNested {
		mst.pendingReply = true
		return
	}
	mst.state = stRunning
	s.succession.Push(t)
	t.Unpark(rt)
}

// ViewChanged implements adets.Scheduler (MAT needs no membership info —
// one of its advantages over LSA, Section 5.6).
func (s *Scheduler) ViewChanged(gcs.View) {}

// Quiesce implements adets.Scheduler. MAT is stable when every live thread
// is blocked on a lock, a condition variable, or a nested reply: stRunning
// threads are still executing, and an stAwaitToken thread always resumes
// once the token reaches it (token movement needs no future delivery), so
// either rules out stability.
func (s *Scheduler) Quiesce(report func(drained bool)) {
	rt := s.env.RT
	rt.Lock()
	s.quiesce = report
	s.checkQuiesceLocked()
	rt.Unlock()
}

func (s *Scheduler) checkQuiesceLocked() {
	if s.quiesce == nil {
		return
	}
	for t := range s.threads {
		switch st(t).state {
		case stBlockedLock, stWaiting, stNested:
		default:
			return
		}
	}
	report := s.quiesce
	s.quiesce = nil
	report(len(s.threads) == 0)
}

// HandleOrdered implements adets.Scheduler: deterministic wait timeouts as
// ordered requests executed by a scheduler-managed thread.
func (s *Scheduler) HandleOrdered(id string, payload any) bool {
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
