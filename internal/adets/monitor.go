package adets

import (
	"fmt"
	"time"

	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

// Monitor is the paper's Section 4 extension layer — mutexes owned by
// logical threads, condition variables with deterministic FIFO wait queues,
// time-bounded waits resolved through the total order, nested-invocation
// parking — together with the life cycle of the threads that use it, written
// once for every lock-based strategy. A strategy embeds a Monitor by value
// and, through Strategy, supplies only its scheduling rule; the monitor never
// asks which strategy it serves.
//
// All state, including the wait record on each Thread, is guarded by the
// runtime lock. The methods that carry the name of an adets.Scheduler method
// (Lock, Unlock, Wait, Notify, NotifyAll, BeginNested, EndNested, Quiesce,
// HandleOrdered, Stop) have that method's contract and take the lock
// themselves, so an embedding strategy implements them by promotion; Alive
// takes it too. Every other method requires the lock to be held.
type Monitor struct {
	env      Env
	strategy Strategy
	Registry Registry // numbers the threads and runs them; Stop stops it

	mutexes map[MutexID]*Mutex
	conds   map[condKey]*FIFO
	waiting map[wire.ThreadID]*Thread // logical thread → its thread parked ForCond
	waitSeq map[wire.ThreadID]uint64
	threads map[*Thread]struct{} // live threads
	quiesce func(drained bool)
	stopped bool
}

// Strategy is what a scheduling strategy adds to the Monitor it embeds. The
// hooks are called with the runtime lock held (Expired excepted).
type Strategy interface {
	// A wait timeout is a request like any other: submitted in delivery
	// order, it takes the mutex through the strategy's own Lock.
	Scheduler

	// Runnable: t was parked and now has what it parked for — the monitor
	// granted it its mutex, or its nested reply was delivered. Let it
	// proceed under the strategy's rule.
	Runnable(t *Thread)
	// Blocked: t is about to park (Parked says what for) — a scheduling
	// point.
	Blocked(t *Thread)
	// Stable: t, a live thread, cannot proceed before a future ordered
	// delivery (the quiesce scan).
	Stable(t *Thread) bool

	// The grant rule. The monitor's own methods of these names hand a mutex
	// to its waiters first come, first served, and send a timeout through
	// the total order; a strategy whose grant order is decided elsewhere
	// (rounds, a leader's schedule) or whose timeouts are local replaces them.

	// Release: mu's owner gave it up; pass it on.
	Release(mu *Mutex)
	// Reacquire: w, parked, was woken from a condition wait by mu's owner
	// and wants mu back.
	Reacquire(w *Thread, mu *Mutex)
	// Expired: the local timer of the wait msg names ran out (no lock held).
	Expired(msg TimeoutMsg)
}

// Mutex is one row of the mutex table.
type Mutex struct {
	ID MutexID
	// Owner is the logical thread holding the mutex, the zero ThreadID when
	// it is free.
	Owner wire.ThreadID
	entry FIFO // threads parked ForMutex, in arrival order
}

type condKey struct {
	m MutexID
	c CondID
}

// TimeoutMsg is the deterministic wait-timeout request (paper Section 4.2):
// when a time-bounded wait expires locally, the replica broadcasts this
// message through the group's total order; the *delivery* of the message —
// identically positioned on every replica — performs the wakeup. Every
// replica's local timer produces the same message id, so the group orders it
// exactly once.
type TimeoutMsg struct {
	// Target identifies the waiting logical thread.
	Target wire.ThreadID
	// Mutex and Cond identify the condition variable waited on.
	Mutex MutexID
	Cond  CondID
	// WaitSeq distinguishes successive waits by the same logical thread.
	WaitSeq uint64
}

// TimeoutID returns the globally unique, replica-deterministic broadcast id
// for a timeout message.
func TimeoutID(m TimeoutMsg) string {
	return fmt.Sprintf("adets-timeout/%s/%d", m.Target, m.WaitSeq)
}

// Init binds the monitor to its environment and to the strategy embedding
// it. Called from the strategy's Start.
func (m *Monitor) Init(env Env, s Strategy) {
	*m = Monitor{
		env:      env,
		strategy: s,
		Registry: Registry{rt: env.RT},
		mutexes:  make(map[MutexID]*Mutex),
		conds:    make(map[condKey]*FIFO),
		waiting:  make(map[wire.ThreadID]*Thread),
		waitSeq:  make(map[wire.ThreadID]uint64),
		threads:  make(map[*Thread]struct{}),
	}
}

// --- thread life cycle ---

// Enter adds t to the live threads.
func (m *Monitor) Enter(t *Thread) { m.threads[t] = struct{}{} }

// Exit removes t, whose body has returned; that may have been the last
// thread a pending Quiesce waited for.
func (m *Monitor) Exit(t *Thread) {
	delete(m.threads, t)
	m.CheckQuiesce()
}

// Stopped reports whether Stop was called.
func (m *Monitor) Stopped() bool { return m.stopped }

// Execute runs exec on t without the runtime lock, unless Stop was called.
func (m *Monitor) Execute(t *Thread, exec func(*Thread)) {
	if !m.stopped {
		m.env.RT.Unlock()
		exec(t)
		m.env.RT.Lock()
	}
}

// Alive is !Stopped for callers that do not hold the runtime lock.
func (m *Monitor) Alive() bool {
	m.env.RT.Lock()
	defer m.env.RT.Unlock()
	return !m.stopped
}

// Stop implements Scheduler: every live thread is unparked and the operation
// it was parked in fails with ErrStopped; no timeout is sent, no worker kept.
func (m *Monitor) Stop() {
	rt := m.env.RT
	rt.Lock()
	m.stopped = true
	m.Registry.Stop()
	for t := range m.threads {
		t.Unpark(rt)
	}
	rt.Unlock()
}

// Quiesce implements Scheduler: report fires exactly once, at the first
// instant from now on at which every live thread is Stable, with
// drained = no live thread remains. A strategy with more to say about
// drained wraps report.
func (m *Monitor) Quiesce(report func(drained bool)) {
	m.env.RT.Lock()
	m.quiesce = report
	m.CheckQuiesce()
	m.env.RT.Unlock()
}

// CheckQuiesce runs the quiesce scan. The monitor runs it wherever it parks
// or retires a thread; a strategy calls it at the scheduling points of its
// own.
func (m *Monitor) CheckQuiesce() {
	if m.quiesce == nil {
		return
	}
	for t := range m.threads {
		if !m.strategy.Stable(t) {
			return
		}
	}
	report := m.quiesce
	m.quiesce = nil
	report(len(m.threads) == 0)
}

// --- the mutex table ---

// Mutex returns id's row, made on first use.
func (m *Monitor) Mutex(id MutexID) *Mutex {
	mu, ok := m.mutexes[id]
	if !ok {
		mu = &Mutex{ID: id}
		m.mutexes[id] = mu
	}
	return mu
}

// held returns id's row if t's logical thread owns it — the precondition of
// Unlock, Wait and Notify.
func (m *Monitor) held(t *Thread, id MutexID) (*Mutex, error) {
	if m.stopped {
		return nil, ErrStopped
	}
	mu := m.Mutex(id)
	if mu.Owner != t.Logical {
		return nil, ErrNotHeld
	}
	return mu, nil
}

// Grant makes t's logical thread the owner of the free mutex mu. Post: t is
// NotParked; the grant is the next event of mu's trace stream.
func (m *Monitor) Grant(mu *Mutex, t *Thread) {
	mu.Owner = t.Logical
	t.parked = NotParked
	m.env.Obs.Grant(mu.ID, t.Logical)
}

// Lock implements Scheduler for a strategy in which any running thread may
// take a mutex.
func (m *Monitor) Lock(t *Thread, id MutexID) error {
	m.env.RT.Lock()
	defer m.env.RT.Unlock()
	return m.Acquire(t, id)
}

// Acquire takes id for t first come, first served. A free mutex is granted
// at once and is no scheduling point; otherwise t joins the entry queue and
// parks. Post (nil error): t's logical thread owns id; grants of one mutex
// are in the order of the Acquire calls.
func (m *Monitor) Acquire(t *Thread, id MutexID) error {
	if m.stopped {
		return ErrStopped
	}
	mu := m.Mutex(id)
	if mu.Owner == (wire.ThreadID{}) {
		m.Grant(mu, t)
		return nil
	}
	mu.entry.Push(t)
	return m.AwaitGrant(t, mu)
}

// AwaitGrant parks t, which has asked for mu under the strategy's grant
// rule, until a Grant makes it the owner. A thread woken without the mutex
// was abandoned (Stop, or a strategy retiring it): ErrStopped.
func (m *Monitor) AwaitGrant(t *Thread, mu *Mutex) error {
	rt := m.env.RT
	var t0 time.Duration
	if m.env.Obs != nil {
		m.env.Obs.Blocked()
		t0 = rt.NowLocked()
	}
	m.park(t, ForMutex)
	if m.stopped || mu.Owner != t.Logical {
		m.env.Obs.Unblocked()
		return ErrStopped
	}
	if m.env.Obs != nil {
		m.env.Obs.GrantedAfterBlock(mu.ID, t.Logical, rt.NowLocked()-t0)
	}
	return nil
}

// park is the one place a thread blocks in the monitor: record what for,
// tell the strategy, let a pending Quiesce look, park.
func (m *Monitor) park(t *Thread, why ParkReason) {
	t.parked = why
	m.strategy.Blocked(t)
	m.CheckQuiesce()
	t.Park(m.env.RT)
}

// Unlock implements Scheduler. Releasing is not a scheduling point for the
// caller.
func (m *Monitor) Unlock(t *Thread, id MutexID) error {
	m.env.RT.Lock()
	defer m.env.RT.Unlock()
	mu, err := m.held(t, id)
	if err != nil {
		return err
	}
	m.env.Obs.Unlock(id, t.Logical)
	m.strategy.Release(mu)
	return nil
}

// Release is the first-come-first-served grant rule: the head of the entry
// queue becomes the owner and Runnable, or the mutex falls free.
func (m *Monitor) Release(mu *Mutex) {
	w := mu.entry.Pop()
	if w == nil {
		mu.Owner = wire.ThreadID{}
		return
	}
	m.Grant(mu, w)
	m.strategy.Runnable(w)
}

// Reacquire is the first-come-first-served grant rule for a woken waiter
// (Java semantics: a notified thread re-enters its monitor before it
// resumes): the waker still holds mu, so w joins the entry queue behind
// whoever asked before the wake-up.
func (m *Monitor) Reacquire(w *Thread, mu *Mutex) { mu.entry.Push(w) }

// --- condition variables ---

func (m *Monitor) cond(id MutexID, c CondID) *FIFO {
	k := condKey{id, c}
	q, ok := m.conds[k]
	if !ok {
		q = &FIFO{}
		m.conds[k] = q
	}
	return q
}

// Wait implements Scheduler. Pre: t's logical thread owns id. The wait takes
// the next sequence number of the logical thread — every wait, bounded or
// not, so that a timeout which lost its race can never match a later wait —
// joins the tail of (id, c), gives the mutex up under the strategy's grant
// rule and parks. Post: t owns id again; timedOut says whether the ordered
// timeout, not a notification, ended the wait.
func (m *Monitor) Wait(t *Thread, id MutexID, c CondID, d time.Duration) (timedOut bool, err error) {
	rt := m.env.RT
	rt.Lock()
	defer rt.Unlock()
	mu, err := m.held(t, id)
	if err != nil {
		return false, err
	}
	m.waitSeq[t.Logical]++
	t.waitSeq, t.timedOut = m.waitSeq[t.Logical], false
	m.waiting[t.Logical] = t
	m.cond(id, c).Push(t)
	var timer *vtime.Timer
	if d > 0 {
		msg := TimeoutMsg{Target: t.Logical, Mutex: id, Cond: c, WaitSeq: t.waitSeq}
		timer = rt.AfterLocked(d, "adets-timeout/"+t.Logical.String(), func() {
			if m.Alive() {
				m.strategy.Expired(msg)
			}
		})
	}
	m.env.Obs.WaitStart(id, c, t.Logical)
	m.strategy.Release(mu)
	m.park(t, ForCond)
	delete(m.waiting, t.Logical)
	if timer != nil {
		// Notified first: the timeout need not enter the order at all. One
		// that already left is harmless — expire checks the sequence number.
		rt.StopTimerLocked(timer)
	}
	if m.stopped || mu.Owner != t.Logical {
		return false, ErrStopped
	}
	return t.timedOut, nil
}

// Notify implements Scheduler: the head of (id, c) is woken.
func (m *Monitor) Notify(t *Thread, id MutexID, c CondID) error {
	return m.notify(t, id, c, false)
}

// NotifyAll implements Scheduler: every waiter of (id, c) is woken, in
// queue order.
func (m *Monitor) NotifyAll(t *Thread, id MutexID, c CondID) error {
	return m.notify(t, id, c, true)
}

func (m *Monitor) notify(t *Thread, id MutexID, c CondID, all bool) error {
	m.env.RT.Lock()
	defer m.env.RT.Unlock()
	mu, err := m.held(t, id)
	if err != nil {
		return err
	}
	q := m.cond(id, c)
	for w := q.Pop(); w != nil; w = q.Pop() {
		m.wake(w, mu, c, false)
		if !all {
			break
		}
	}
	return nil
}

// wake ends w's wait on (mu, c). Pre: the caller owns mu and has taken w
// off the condition queue. Post: w is parked ForMutex and has asked for mu
// under the strategy's grant rule; it resumes only once granted.
func (m *Monitor) wake(w *Thread, mu *Mutex, c CondID, timedOut bool) {
	w.timedOut = timedOut
	w.parked = ForMutex
	m.env.Obs.Wake(mu.ID, c, w.Logical, timedOut)
	m.strategy.Reacquire(w, mu)
}

// --- deterministic timeouts ---

// Expired is the timeout transport of the paper's Section 4.2: the message
// enters the total order under an id every replica's timer computes alike,
// so it is ordered once and delivered to HandleOrdered at one position.
func (m *Monitor) Expired(msg TimeoutMsg) {
	m.env.BroadcastOrdered(TimeoutID(msg), &msg)
}

// HandleOrdered implements Scheduler for the ordered timeout.
func (m *Monitor) HandleOrdered(id string, payload any) bool {
	msg, ok := payload.(*TimeoutMsg)
	if ok {
		m.TimeoutRequest(wire.LogicalID(id), *msg)
	}
	return ok
}

// TimeoutRequest submits the request that resolves msg, to run under the
// given logical thread like any other request of the strategy.
func (m *Monitor) TimeoutRequest(logical wire.LogicalID, msg TimeoutMsg) {
	m.strategy.Submit(Request{
		Logical: logical,
		Exec:    func(t *Thread) { m.expire(t, msg) },
	})
}

// expire resolves the timeout-versus-notify race deterministically: it takes
// the mutex like any request, and only a waiter still in the very wait the
// message names — same logical thread, same sequence number — is woken, as
// timed out and off the condition queue, so it consumes no notification. A
// stale message finds nothing to do.
func (m *Monitor) expire(t *Thread, msg TimeoutMsg) {
	if err := m.strategy.Lock(t, msg.Mutex); err != nil {
		return
	}
	rt := m.env.RT
	rt.Lock()
	if w := m.waiting[msg.Target]; w != nil && w.parked == ForCond && w.waitSeq == msg.WaitSeq {
		m.env.Obs.TimeoutFired()
		m.cond(msg.Mutex, msg.Cond).Remove(w)
		m.wake(w, m.Mutex(msg.Mutex), msg.Cond, true)
	}
	rt.Unlock()
	_ = m.strategy.Unlock(t, msg.Mutex)
}

// --- nested invocations ---

// BeginNested implements Scheduler: t parks ForReply until EndNested. The
// reply is delivered at a point of the total order but t gets here in its
// own time, so either call may come first; each pair resumes t exactly once.
func (m *Monitor) BeginNested(t *Thread) {
	m.env.RT.Lock()
	defer m.env.RT.Unlock()
	if t.permit {
		t.permit = false // the reply is already here: never look blocked
		return
	}
	m.park(t, ForReply)
	t.parked = NotParked // for a thread woken by Stop; EndNested cleared it already
}

// EndNested implements Scheduler.
func (m *Monitor) EndNested(t *Thread) {
	m.env.RT.Lock()
	defer m.env.RT.Unlock()
	if t.parked != ForReply {
		t.permit = true
		return
	}
	t.parked = NotParked
	m.strategy.Runnable(t)
}
