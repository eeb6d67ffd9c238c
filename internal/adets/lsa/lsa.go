// Package lsa implements ADETS-LSA — Basile's Loose Synchronization
// Algorithm extended per Section 4.1 of the paper with the native Java
// synchronization model: condition variables, deterministic time-bounded
// waits via timeout threads (paper Fig. 1), dynamic mutexes, and leader
// fail-over driven by in-stream view changes.
//
// One replica (the lowest-ranked member of the current view) is the
// *leader*: it executes threads without restriction, grants mutexes
// first-come-first-served, records the grant order as a sequence of
// (mutex, logical thread) pairs, and broadcasts this mutex table
// periodically. *Followers* suspend a thread that requests a mutex until
// the table tells them it is that thread's turn.
//
// Deviation from Basile's original, documented in DESIGN.md: mutex tables
// travel through the group's totally-ordered broadcast rather than plain
// multicast. Every follower therefore applies exactly the same table
// prefix, which makes crash fail-over state-free — the new leader simply
// keeps granting where the delivered table ends, and grants the old leader
// logged but never got delivered are re-decided by the new leader. Clients
// are protected by the majority reply policy.
package lsa

import (
	"fmt"
	"sort"
	"time"

	"github.com/replobj/replobj/internal/adets"
	"github.com/replobj/replobj/internal/gcs"
	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

// DefaultPeriod is the default mutex-table broadcast period.
const DefaultPeriod = 5 * time.Millisecond

// TableEntry is one grant record: mutex m was granted to logical thread l.
type TableEntry struct {
	M adets.MutexID
	L wire.LogicalID
}

// TableUpdate carries a batch of grant records from the leader.
type TableUpdate struct {
	From    wire.NodeID
	Entries []TableEntry
}

func init() { wire.RegisterPayload(TableUpdate{}) }

type lsaThread struct {
	waiting     bool
	waitSeq     uint64
	timedOut    bool
	granted     bool // set by the grant path before unparking a lock waiter
	lockWait    bool // parked in Lock awaiting a grant
	nested      bool // parked in BeginNested awaiting the ordered reply
	replyPermit bool // EndNested arrived before BeginNested: next park is a no-op
}

type lockState struct {
	owner    wire.LogicalID
	schedule []wire.LogicalID // applied table entries, grant order
	nextIdx  int              // next schedule position to grant
	pending  map[wire.LogicalID]*adets.Thread
	arrival  []wire.LogicalID // request arrival order (leader grant order)
}

type condKey struct {
	m adets.MutexID
	c adets.CondID
}

// Option configures the scheduler.
type Option func(*Scheduler)

// WithPeriod sets the mutex-table broadcast period.
func WithPeriod(d time.Duration) Option {
	return func(s *Scheduler) { s.period = d }
}

// Scheduler implements adets.Scheduler with the leader-follower LSA model.
type Scheduler struct {
	env    adets.Env
	reg    *adets.Registry
	period time.Duration

	leader  wire.NodeID
	locks   map[adets.MutexID]*lockState
	conds   map[condKey]*adets.FIFO
	waiters map[wire.LogicalID]*adets.Thread
	threads map[*adets.Thread]bool

	pendingLog []TableEntry // leader: grants not yet broadcast
	inflight   int          // table batches broadcast but not yet delivered back
	batchSeq   uint64
	waitSeqs   map[wire.LogicalID]uint64
	flushTimer *vtime.Timer
	stopped    bool
	quiesce    func(drained bool)
}

var _ adets.Scheduler = (*Scheduler)(nil)

// New returns an ADETS-LSA scheduler.
func New(opts ...Option) *Scheduler {
	s := &Scheduler{
		period:   DefaultPeriod,
		locks:    make(map[adets.MutexID]*lockState),
		conds:    make(map[condKey]*adets.FIFO),
		waiters:  make(map[wire.LogicalID]*adets.Thread),
		threads:  make(map[*adets.Thread]bool),
		waitSeqs: make(map[wire.LogicalID]uint64),
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Name implements adets.Scheduler.
func (s *Scheduler) Name() string { return "ADETS-LSA" }

// Capabilities implements adets.Scheduler.
func (s *Scheduler) Capabilities() adets.Capabilities {
	return adets.Capabilities{
		Coordination:      "Locks/Monitor",
		DeadlockFree:      "NI+CB",
		Deployment:        "manual",
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
	if len(env.Peers) > 0 {
		s.leader = env.Peers[0]
	}
	s.scheduleFlush()
}

// Stop implements adets.Scheduler.
func (s *Scheduler) Stop() {
	rt := s.env.RT
	rt.Lock()
	s.stopped = true
	if s.flushTimer != nil {
		rt.StopTimerLocked(s.flushTimer)
		s.flushTimer = nil
	}
	for t := range s.threads {
		t.Unpark(rt)
	}
	rt.Unlock()
}

func st(t *adets.Thread) *lsaThread { return t.Sched.(*lsaThread) }

func (s *Scheduler) isLeaderLocked() bool { return s.leader == s.env.Self }

// Submit implements adets.Scheduler: true multithreading — every request
// starts executing immediately on all replicas; determinism comes from the
// grant order alone.
func (s *Scheduler) Submit(req adets.Request) {
	rt := s.env.RT
	rt.Lock()
	defer rt.Unlock()
	if s.stopped {
		return
	}
	s.env.Obs.Submitted()
	t := s.reg.NewThread("lsa", req.Logical)
	t.Sched = &lsaThread{}
	s.threads[t] = true
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
	s.env.RT.Lock()
	delete(s.threads, t)
	s.checkQuiesceLocked()
	s.env.RT.Unlock()
}

func (s *Scheduler) lock(m adets.MutexID) *lockState {
	ls, ok := s.locks[m]
	if !ok {
		ls = &lockState{pending: make(map[wire.LogicalID]*adets.Thread)}
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

// Lock implements adets.Scheduler. On the leader the request is granted
// FCFS and logged; on a follower it is granted when the applied mutex
// table says so.
func (s *Scheduler) Lock(t *adets.Thread, m adets.MutexID) error {
	rt := s.env.RT
	rt.Lock()
	defer rt.Unlock()
	if s.stopped {
		return adets.ErrStopped
	}
	s.requestLocked(t, m)
	blocked := !st(t).granted
	var t0 time.Duration
	if blocked && s.env.Obs != nil {
		s.env.Obs.Blocked()
		t0 = rt.NowLocked()
	}
	// Park unconditionally: if the grant already happened, the unpark left
	// a permit and Park returns immediately — no lost wakeup, no stale
	// permit.
	st(t).lockWait = true
	s.checkQuiesceLocked()
	t.Park(rt)
	st(t).lockWait = false
	granted := st(t).granted
	st(t).granted = false
	if !granted && s.stopped {
		if blocked {
			s.env.Obs.Unblocked()
		}
		return adets.ErrStopped
	}
	if blocked && s.env.Obs != nil {
		s.env.Obs.GrantedAfterBlock(m, string(t.Logical), rt.NowLocked()-t0)
	}
	return nil
}

// requestLocked registers a lock request and runs the grant machinery.
// If the request can be satisfied immediately, the grant deposits an
// unpark permit the caller's Park consumes.
func (s *Scheduler) requestLocked(t *adets.Thread, m adets.MutexID) {
	ls := s.lock(m)
	ls.pending[t.Logical] = t
	ls.arrival = append(ls.arrival, t.Logical)
	s.tryGrantLocked(m)
}

// tryGrantLocked advances grants for m as far as possible:
//   - first along the applied schedule (both roles — a freshly promoted
//     leader finishes the old leader's published decisions first);
//   - then, on the leader only, FCFS over arrived requests, logging each
//     grant for the next table broadcast.
func (s *Scheduler) tryGrantLocked(m adets.MutexID) {
	ls := s.lock(m)
	for ls.owner == "" {
		if ls.nextIdx < len(ls.schedule) {
			next := ls.schedule[ls.nextIdx]
			th := ls.pending[next]
			if th == nil {
				return // that thread has not requested yet on this replica
			}
			ls.nextIdx++
			s.grantLocked(ls, th, m, false)
			continue
		}
		if !s.isLeaderLocked() {
			return // follower: wait for more table
		}
		th := s.nextArrivalLocked(ls)
		if th == nil {
			return
		}
		s.grantLocked(ls, th, m, true)
	}
}

// nextArrivalLocked pops the oldest still-pending arrival (leader FCFS).
func (s *Scheduler) nextArrivalLocked(ls *lockState) *adets.Thread {
	for len(ls.arrival) > 0 {
		l := ls.arrival[0]
		ls.arrival = ls.arrival[1:]
		if th, ok := ls.pending[l]; ok {
			return th
		}
	}
	return nil
}

func (s *Scheduler) grantLocked(ls *lockState, th *adets.Thread, m adets.MutexID, log bool) {
	delete(ls.pending, th.Logical)
	ls.owner = th.Logical
	s.env.Obs.Grant(m, string(th.Logical))
	st(th).granted = true
	th.Unpark(s.env.RT) // harmless permit if the thread has not parked yet
	if log {
		s.pendingLog = append(s.pendingLog, TableEntry{M: m, L: th.Logical})
	}
}

// Unlock implements adets.Scheduler.
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
	ls.owner = ""
	s.tryGrantLocked(m)
	return nil
}

// Wait implements adets.Scheduler. Operations on a condition variable are
// protected by its mutex, whose grant order is deterministic, so plain
// local FIFO queues suffice (Section 4.1). Time bounds use the timeout
// thread of Fig. 1.
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
	lst := st(t)
	lst.waiting = true
	lst.timedOut = false
	s.waitSeqs[t.Logical]++
	lst.waitSeq = s.waitSeqs[t.Logical]
	s.waiters[t.Logical] = t
	s.cond(m, c).Push(t)
	var timer *vtime.Timer
	if d > 0 {
		timer = s.spawnTimeoutThreadLocked(t, m, c, lst.waitSeq, d)
	}
	s.env.Obs.WaitStart(m, c, string(t.Logical))
	ls.owner = ""
	s.tryGrantLocked(m)
	s.checkQuiesceLocked()
	t.Park(rt) // woken when re-granted m after notify/timeout
	lst.waiting = false
	delete(s.waiters, t.Logical)
	if timer != nil {
		rt.StopTimerLocked(timer)
	}
	if s.stopped {
		return false, adets.ErrStopped
	}
	st(t).granted = false
	return lst.timedOut, nil
}

// spawnTimeoutThreadLocked arms the local timer that creates the TO-thread
// of paper Fig. 1: a scheduler-managed thread that locks the mutex and, if
// the target is still waiting, performs the timeout wake. Its lock request
// is ordered by the normal LSA machinery, so leader and followers resolve
// the timeout-vs-notify race identically.
func (s *Scheduler) spawnTimeoutThreadLocked(target *adets.Thread, m adets.MutexID, c adets.CondID, seq uint64, d time.Duration) *vtime.Timer {
	logical := wire.LogicalID(fmt.Sprintf("lsa-to/%s/%d", target.Logical, seq))
	return s.env.RT.AfterLocked(d, string(logical), func() {
		rt := s.env.RT
		rt.Lock()
		if s.stopped {
			rt.Unlock()
			return
		}
		t := s.reg.NewThread("lsa", logical)
		t.Sched = &lsaThread{}
		s.threads[t] = true
		rt.Unlock()
		if err := s.Lock(t, m); err == nil {
			rt.Lock()
			w := s.waiters[target.Logical]
			if w != nil && st(w).waiting && st(w).waitSeq == seq {
				s.env.Obs.TimeoutFired()
				s.env.Obs.Wake(m, c, string(w.Logical), true)
				s.cond(m, c).Remove(w)
				st(w).timedOut = true
				s.requeueWaiterLocked(w, m)
			}
			rt.Unlock()
			_ = s.Unlock(t, m)
		}
		s.threadDone(t)
	})
}

// requeueWaiterLocked makes a woken condition waiter reacquire its mutex
// through the regular grant machinery.
func (s *Scheduler) requeueWaiterLocked(w *adets.Thread, m adets.MutexID) {
	ls := s.lock(m)
	ls.pending[w.Logical] = w
	ls.arrival = append(ls.arrival, w.Logical)
	s.tryGrantLocked(m)
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
		s.env.Obs.Wake(m, c, string(w.Logical), false)
		s.requeueWaiterLocked(w, m)
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
		s.env.Obs.Wake(m, c, string(w.Logical), false)
		s.requeueWaiterLocked(w, m)
	}
	return nil
}

// Yield implements adets.Scheduler (no-op: LSA threads are never
// token-gated).
func (s *Scheduler) Yield(*adets.Thread) {}

// BeginNested implements adets.Scheduler: "a thread waiting for a nested
// invocation reply does not have any influence on the progress of other
// threads" (Section 4.1) — it simply parks. An early EndNested leaves a
// permit, so the order of the two calls does not matter.
func (s *Scheduler) BeginNested(t *adets.Thread) {
	rt := s.env.RT
	rt.Lock()
	lst := st(t)
	if lst.replyPermit {
		// The reply was delivered before we parked: consume the permit
		// without ever looking blocked to a concurrent Quiesce.
		lst.replyPermit = false
		t.Park(rt)
		rt.Unlock()
		return
	}
	lst.nested = true
	s.checkQuiesceLocked()
	t.Park(rt)
	lst.nested = false
	rt.Unlock()
}

// EndNested implements adets.Scheduler.
func (s *Scheduler) EndNested(t *adets.Thread) {
	rt := s.env.RT
	rt.Lock()
	if !st(t).nested {
		st(t).replyPermit = true
	}
	t.Unpark(rt)
	rt.Unlock()
}

// ViewChanged implements adets.Scheduler: the new leader is the lowest
// ranked member of the view, delivered at the same stream position on
// every replica. A freshly promoted leader finishes the published schedule
// first (tryGrantLocked), then grants FCFS.
func (s *Scheduler) ViewChanged(v gcs.View) {
	rt := s.env.RT
	rt.Lock()
	defer rt.Unlock()
	if len(v.Members) == 0 {
		return
	}
	s.env.Obs.ViewChange(v.Epoch)
	was := s.leader
	s.leader = v.Members[0]
	if s.leader == s.env.Self && was != s.env.Self {
		// Promotion: revisit every mutex — pending requests beyond the
		// published schedule can now be granted (and logged) by us.
		for m := range s.locks {
			s.tryGrantLocked(m)
		}
	}
}

// HandleOrdered implements adets.Scheduler: mutex-table batches arrive
// through the total order; followers apply them and grant accordingly.
func (s *Scheduler) HandleOrdered(_ string, payload any) bool {
	up, ok := payload.(TableUpdate)
	if !ok {
		return false
	}
	rt := s.env.RT
	rt.Lock()
	defer rt.Unlock()
	if s.stopped {
		return true
	}
	if up.From == s.env.Self {
		// Our own broadcast returning through the order: grants were already
		// applied locally at log time; the batch is now published to all.
		s.inflight--
		s.checkQuiesceLocked()
		return true
	}
	touched := make(map[adets.MutexID]bool)
	for _, e := range up.Entries {
		ls := s.lock(e.M)
		ls.schedule = append(ls.schedule, e.L)
		touched[e.M] = true
	}
	for _, m := range sortedMutexes(touched) {
		s.tryGrantLocked(m)
	}
	return true
}

func sortedMutexes(set map[adets.MutexID]bool) []adets.MutexID {
	out := make([]adets.MutexID, 0, len(set))
	for m := range set {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Quiesce implements adets.Scheduler. LSA is stable when every live thread
// is parked awaiting a grant, a notification, or a nested reply. Drained
// additionally requires that the leader's grant log is fully published AND
// delivered back through the order: an unpublished (or undelivered) grant
// means the leader executed ahead of the stream — the grantee may have
// finished here while it is still blocked on every follower, so leader and
// followers would disagree about the cut. A grant pending publication can
// never deliver while dispatch is paused, so in that case the stable report
// is drained=false (checkpoint skipped) on the leader — and on followers
// too, whose corresponding threads are still parked awaiting the table.
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
		lst := st(t)
		stable := lst.nested || ((lst.waiting || lst.lockWait) && !lst.granted)
		if !stable {
			return
		}
	}
	pubClean := len(s.pendingLog) == 0 && s.inflight == 0
	report := s.quiesce
	s.quiesce = nil
	report(len(s.threads) == 0 && pubClean)
}

// HandleDirect implements adets.Scheduler.
func (s *Scheduler) HandleDirect(wire.NodeID, any) bool { return false }

// scheduleFlush arms the periodic mutex-table broadcast.
func (s *Scheduler) scheduleFlush() {
	rt := s.env.RT
	rt.Lock()
	if s.stopped {
		rt.Unlock()
		return
	}
	s.flushTimer = rt.AfterLocked(s.period, "lsa-flush/"+string(s.env.Self), s.flush)
	rt.Unlock()
}

func (s *Scheduler) flush() {
	rt := s.env.RT
	rt.Lock()
	var batch []TableEntry
	var id string
	if !s.stopped && s.isLeaderLocked() && len(s.pendingLog) > 0 {
		batch = s.pendingLog
		s.pendingLog = nil
		s.batchSeq++
		s.inflight++
		id = fmt.Sprintf("lsa-table/%s/%d", s.env.Self, s.batchSeq)
	}
	rt.Unlock()
	if batch != nil {
		s.env.BroadcastOrdered(id, TableUpdate{From: s.env.Self, Entries: batch})
	}
	s.scheduleFlush()
}
