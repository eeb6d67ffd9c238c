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
	L wire.ThreadID
}

// TableUpdate carries a batch of grant records from the leader.
type TableUpdate struct {
	From    wire.NodeID
	Entries []TableEntry
}

// lockState is what LSA's grant rule keeps per mutex beside the Monitor's
// row (which says who owns it).
type lockState struct {
	schedule []wire.ThreadID // applied table entries, grant order
	nextIdx  int             // next schedule position to grant
	pending  map[wire.ThreadID]*adets.Thread
	arrival  []wire.ThreadID // request arrival order (leader grant order)
}

// Option configures the scheduler.
type Option func(*Scheduler)

// WithPeriod sets the mutex-table broadcast period.
func WithPeriod(d time.Duration) Option {
	return func(s *Scheduler) { s.period = d }
}

// Scheduler implements adets.Scheduler with the leader-follower LSA model.
// Mutex ownership, condition variables, the timeout check, nested-invocation
// parking, Stop and Quiesce are the embedded Monitor's; LSA replaces its
// grant rule (Release, Reacquire: the leader's schedule) and its timeout
// transport (Expired: the local TO-thread of Fig. 1).
type Scheduler struct {
	adets.Monitor
	env    adets.Env
	period time.Duration

	leader wire.NodeID
	locks  map[adets.MutexID]*lockState

	pendingLog []TableEntry // leader: grants not yet broadcast
	inflight   int          // table batches broadcast but not yet delivered back
	batchSeq   uint64
	flushTimer *vtime.Timer
}

var _ adets.Strategy = (*Scheduler)(nil)

// thread is a request's thread and the job a pooled worker runs for it.
type thread struct {
	adets.Thread
	s    *Scheduler
	exec func(*adets.Thread)
}

// Run implements adets.Job.
func (t *thread) Run() {
	t.s.Execute(&t.Thread, t.exec)
	t.s.Exit(&t.Thread)
}

// New returns an ADETS-LSA scheduler.
func New(opts ...Option) *Scheduler {
	s := &Scheduler{
		period: DefaultPeriod,
		locks:  make(map[adets.MutexID]*lockState),
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
	s.Init(env, s)
	if len(env.Peers) > 0 {
		s.leader = env.Peers[0]
	}
	s.scheduleFlush()
}

// Stop implements adets.Scheduler.
func (s *Scheduler) Stop() {
	s.Monitor.Stop()
	rt := s.env.RT
	rt.Lock()
	if s.flushTimer != nil {
		rt.StopTimerLocked(s.flushTimer)
		s.flushTimer = nil
	}
	rt.Unlock()
}

func (s *Scheduler) isLeaderLocked() bool { return s.leader == s.env.Self }

// Submit implements adets.Scheduler: true multithreading — every request
// starts executing immediately on all replicas; determinism comes from the
// grant order alone.
func (s *Scheduler) Submit(req adets.Request) {
	rt := s.env.RT
	rt.Lock()
	defer rt.Unlock()
	if s.Stopped() {
		return
	}
	s.env.Obs.Submitted()
	th := &thread{s: s, exec: req.Exec}
	s.Enter(s.Registry.Init(&th.Thread, "lsa", req.Thread(), nil))
	s.Registry.Start(th)
}

func (s *Scheduler) lock(m adets.MutexID) *lockState {
	ls, ok := s.locks[m]
	if !ok {
		ls = &lockState{pending: make(map[wire.ThreadID]*adets.Thread)}
		s.locks[m] = ls
	}
	return ls
}

// Lock implements adets.Scheduler. On the leader the request is granted
// FCFS and logged; on a follower it is granted when the applied mutex
// table says so.
func (s *Scheduler) Lock(t *adets.Thread, m adets.MutexID) error {
	rt := s.env.RT
	rt.Lock()
	defer rt.Unlock()
	if s.Stopped() {
		return adets.ErrStopped
	}
	s.requestLocked(t, m)
	mu := s.Mutex(m)
	if mu.Owner == t.Logical {
		return nil // granted at once: the leader found m free, or the table already names t
	}
	return s.AwaitGrant(t, mu)
}

// requestLocked registers a lock request and runs the grant machinery.
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
	ls, mu := s.lock(m), s.Mutex(m)
	for mu.Owner == (wire.ThreadID{}) {
		if ls.nextIdx < len(ls.schedule) {
			next := ls.schedule[ls.nextIdx]
			th := ls.pending[next]
			if th == nil {
				return // that thread has not requested yet on this replica
			}
			ls.nextIdx++
			s.grantLocked(ls, th, mu, false)
			continue
		}
		if !s.isLeaderLocked() {
			return // follower: wait for more table
		}
		th := s.nextArrivalLocked(ls)
		if th == nil {
			return
		}
		s.grantLocked(ls, th, mu, true)
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

// grantLocked makes th the owner; a thread already parked for the mutex (a
// queued Lock, a woken waiter) resumes, one still on its way into Lock finds
// itself the owner there.
func (s *Scheduler) grantLocked(ls *lockState, th *adets.Thread, mu *adets.Mutex, log bool) {
	delete(ls.pending, th.Logical)
	parked := th.Parked() == adets.ForMutex
	s.Grant(mu, th)
	if parked {
		th.Unpark(s.env.RT)
	}
	if log {
		s.pendingLog = append(s.pendingLog, TableEntry{M: mu.ID, L: th.Logical})
	}
}

// Release implements adets.Strategy: the next owner is whoever the table —
// or, on the leader, arrival order — says.
func (s *Scheduler) Release(mu *adets.Mutex) {
	mu.Owner = wire.ThreadID{}
	s.tryGrantLocked(mu.ID)
}

// Reacquire implements adets.Strategy: a woken condition waiter reacquires
// its mutex through the regular grant machinery. Operations on a condition
// variable are protected by its mutex, whose grant order is deterministic, so
// the Monitor's plain local FIFO queues suffice (Section 4.1).
func (s *Scheduler) Reacquire(w *adets.Thread, mu *adets.Mutex) {
	s.requestLocked(w, mu.ID)
}

// Expired implements adets.Strategy with the TO-thread of paper Fig. 1: the
// timeout is not broadcast; a local scheduler-managed thread locks the mutex
// and, if the target is still in that wait, performs the timeout wake. Its
// lock request is ordered by the normal LSA machinery, so leader and
// followers resolve the timeout-vs-notify race identically.
func (s *Scheduler) Expired(msg adets.TimeoutMsg) {
	s.TimeoutRequest(wire.LogicalID(fmt.Sprintf("lsa-to/%s/%d", msg.Target, msg.WaitSeq)), msg)
}

// Runnable implements adets.Strategy: "a thread waiting for a nested
// invocation reply does not have any influence on the progress of other
// threads" (Section 4.1) — it simply resumes.
func (s *Scheduler) Runnable(t *adets.Thread) { t.Unpark(s.env.RT) }

// Blocked implements adets.Strategy: LSA has no scheduling points.
func (s *Scheduler) Blocked(*adets.Thread) {}

// Stable implements adets.Strategy. LSA is stable when every live thread is
// parked awaiting a grant, a notification, or a nested reply.
func (s *Scheduler) Stable(t *adets.Thread) bool { return t.Parked() != adets.NotParked }

// Yield implements adets.Scheduler (no-op: LSA threads are never
// token-gated).
func (s *Scheduler) Yield(*adets.Thread) {}

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
	up, ok := payload.(*TableUpdate)
	if !ok {
		return false
	}
	rt := s.env.RT
	rt.Lock()
	defer rt.Unlock()
	if s.Stopped() {
		return true
	}
	if up.From == s.env.Self {
		// Our own broadcast returning through the order: grants were already
		// applied locally at log time; the batch is now published to all.
		s.inflight--
		s.CheckQuiesce()
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

// Quiesce implements adets.Scheduler. Drained additionally requires
// that the leader's grant log is fully published AND
// delivered back through the order: an unpublished (or undelivered) grant
// means the leader executed ahead of the stream — the grantee may have
// finished here while it is still blocked on every follower, so leader and
// followers would disagree about the cut. A grant pending publication can
// never deliver while dispatch is paused, so in that case the stable report
// is drained=false (checkpoint skipped) on the leader — and on followers
// too, whose corresponding threads are still parked awaiting the table.
func (s *Scheduler) Quiesce(report func(drained bool)) {
	s.Monitor.Quiesce(func(drained bool) {
		report(drained && len(s.pendingLog) == 0 && s.inflight == 0)
	})
}

// scheduleFlush arms the periodic mutex-table broadcast.
func (s *Scheduler) scheduleFlush() {
	rt := s.env.RT
	rt.Lock()
	if s.Stopped() {
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
	if !s.Stopped() && s.isLeaderLocked() && len(s.pendingLog) > 0 {
		batch = s.pendingLog
		s.pendingLog = nil
		s.batchSeq++
		s.inflight++
		id = fmt.Sprintf("lsa-table/%s/%d", s.env.Self, s.batchSeq)
	}
	rt.Unlock()
	if batch != nil {
		s.env.BroadcastOrdered(id, &TableUpdate{From: s.env.Self, Entries: batch})
	}
	s.scheduleFlush()
}
