// Package pds implements ADETS-PDS — Basile's Preemptive Deterministic
// Scheduling algorithm (PDS-1 and PDS-2) extended per Section 4.2 of the
// paper with a practical middleware integration:
//
//   - request-to-thread assignment (the paper's synchronized strategy via a
//     scheduler-managed queue mutex, used in the evaluation, plus the
//     round-robin alternative);
//   - condition variables integrated into the round model (Fig. 2): a
//     waiting thread leaves the active set at the next round boundary, a
//     notified thread rejoins at the next round start by reacquiring the
//     mutex;
//   - automatic thread-pool resizing around a minimum threshold to escape
//     the all-threads-waiting deadlock;
//   - deterministic time-bounded waits via totally-ordered timeout
//     requests executed by normal request-handler threads;
//   - two nested-invocation strategies: A (no scheduler support — the
//     thread blocks the round, favoured for short invocations and used in
//     the paper's evaluation) and B (treat the thread as suspended and
//     resume it at a round boundary).
//
// The algorithm executes in rounds: threads run until each has issued its
// next mutex request; when every active thread is suspended, a new round
// starts and requests are granted in increasing thread-ID order (PDS-2
// additionally grants one extra mutex per thread during phase 1). No
// communication at all is needed for lock determinism — PDS's signature
// property.
package pds

import (
	"strconv"
	"time"

	"github.com/replobj/replobj/internal/adets"
	"github.com/replobj/replobj/internal/gcs"
	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

// QueueMutex is the reserved mutex protecting the incoming request queue
// under the synchronized assignment strategy. It takes part in rounds like
// any object-level mutex — the source of PDS's assignment overhead in the
// paper's Fig. 4(a)/(b).
const QueueMutex adets.MutexID = "pds/__queue"

// Variant selects PDS-1 or PDS-2.
type Variant int

// The two algorithm variants of Basile et al.
const (
	PDS1 Variant = 1
	PDS2 Variant = 2
)

// Assignment selects the request-to-thread assignment strategy.
type Assignment int

// Assignment strategies of Section 4.2.
const (
	// Synchronized: a free thread locks QueueMutex and pops the next
	// request — consistent on all replicas because the lock is granted by
	// PDS itself. Used in the paper's evaluation.
	Synchronized Assignment = iota
	// RoundRobin: request i goes to thread i mod N. Works well only when
	// requests have identical computation times.
	RoundRobin
)

// NestedStrategy selects how nested invocations interact with rounds.
type NestedStrategy int

// Nested invocation strategies of Section 4.2.
const (
	// NestedBlockRound: no scheduler support; the invoking thread counts as
	// running, so no new round can start until the reply arrives. Right for
	// short invocations; used in the paper's evaluation.
	NestedBlockRound NestedStrategy = iota
	// NestedSuspend: the invoking thread is treated as suspended; other
	// threads keep executing rounds and the thread resumes at the round
	// boundary after its reply — adding up to one round of delay.
	NestedSuspend
)

type threadState int

const (
	stRunning threadState = iota
	stSuspended
	stWaiting
	stIdle
	stResuming
	stNestedSusp
	stRetired
)

// pdsThread is a pool thread and PDS's state for it in one allocation, and
// the job a pooled worker runs for it.
type pdsThread struct {
	adets.Thread
	s *Scheduler

	state    threadState
	inActive bool            // member of the round's active set
	reqMutex adets.MutexID   // pending mutex request while suspended
	eligible bool            // request may be granted in the current round
	resume   adets.MutexID   // mutex to reacquire when resuming ("" = none)
	between  wire.LogicalID  // the worker's own identity between requests (queue-mutex owner)
	ownQueue []adets.Request // round-robin assignment

	// PDS-2 per-round bookkeeping.
	got1      bool // received a phase-1 grant this round
	phase2    bool // received the second grant this round
	committed bool // this round's second action is decided (second
	//                    grant received, or suspended/waiting)
	secondPending bool // suspended on a second request that may still be
	//                    granted within the current round
}

// Config parameterizes the scheduler.
type Config struct {
	// Variant selects PDS-1 (default) or PDS-2.
	Variant Variant
	// Assignment selects the request assignment strategy (default
	// Synchronized, as in the paper's evaluation).
	Assignment Assignment
	// Nested selects the nested-invocation strategy (default
	// NestedBlockRound, as in the paper's evaluation).
	Nested NestedStrategy
	// PoolSize is the initial thread-pool size (default 4; the paper's
	// benchmarks set it to the number of clients).
	PoolSize int
	// MinSpare is the minimum number of non-waiting threads maintained by
	// the automatic resize rule (default 1).
	MinSpare int
	// AssignGrace is how long a round that only waits for the queue-mutex
	// holder may be deferred before the holder is "suspended temporarily
	// due to the lack of requests" (default 2ms). Requests that are already
	// in flight land within the grace period and keep the round aligned;
	// condition-variable resumes pay it as extra delay — the round-model
	// cost the paper reports for PDS with condition variables.
	AssignGrace time.Duration
	// ArtificialRequests enables the paper's "artificial requests" option
	// (Section 4.2): a worker that finds the request queue empty completes
	// an artificial no-op request — it releases the queue mutex and goes
	// idle instead of holding the mutex while waiting in real time for the
	// next arrival, and queue-mutex grants are rationed to the workers in
	// fixed rotation, one per queued request (an empty-queue turn is the
	// no-op request completing instantly, keeping the rotation aligned).
	// The request-to-worker binding — and with it the queue-grant trace —
	// becomes a pure function of the totally ordered submit sequence,
	// closing the empty-queue race of the default mode (see
	// nextSynchronized) at the cost of serializing pops on the rotation.
	ArtificialRequests bool
}

func (c *Config) applyDefaults() {
	if c.Variant == 0 {
		c.Variant = PDS1
	}
	if c.PoolSize <= 0 {
		c.PoolSize = 4
	}
	if c.MinSpare <= 0 {
		c.MinSpare = 1
	}
	if c.AssignGrace <= 0 {
		c.AssignGrace = 2 * time.Millisecond
	}
}

// Scheduler implements adets.Scheduler with the PDS round model. Mutex
// ownership, condition variables, deterministic timeouts, nested-invocation
// parking, Stop and Quiesce are the embedded Monitor's; PDS replaces its grant
// rule (Release, Reacquire: rounds) and keeps the pool.
type Scheduler struct {
	adets.Monitor
	env adets.Env
	cfg Config

	pool  []*adets.Thread
	queue []adets.Request
	rr    int    // round-robin cursor
	qRot  uint64 // artificial-requests queue-grant rotation cursor
	round uint64
	// awaiting is the worker holding QueueMutex on an empty queue: it
	// counts as running ("the idling thread will not acquire a lock", the
	// paper's PDS liveness caveat) until a round is actually needed, at
	// which point the resize rule "suspends the thread temporarily due to
	// the lack of requests": it goes idle, releasing the queue mutex.
	awaiting  *adets.Thread
	convTimer *vtime.Timer // pending awaiting→idle conversion (grace period)
}

var _ adets.Strategy = (*Scheduler)(nil)

// New returns an ADETS-PDS scheduler.
func New(cfg Config) *Scheduler {
	cfg.applyDefaults()
	return &Scheduler{cfg: cfg}
}

// Name implements adets.Scheduler.
func (s *Scheduler) Name() string {
	if s.cfg.Variant == PDS2 {
		return "ADETS-PDS-2"
	}
	return "ADETS-PDS"
}

// Capabilities implements adets.Scheduler.
func (s *Scheduler) Capabilities() adets.Capabilities {
	return adets.Capabilities{
		Coordination:      "Locks",
		DeadlockFree:      "NO",
		Deployment:        "manual",
		Multithreading:    "MA (restr.)",
		ReentrantLocks:    true,
		ConditionVars:     true,
		TimedWait:         true,
		NestedInvocations: true,
	}
}

// Start implements adets.Scheduler: the fixed-size pool spins up and every
// worker immediately requests the queue mutex, forming the first round.
func (s *Scheduler) Start(env adets.Env) {
	s.env = env
	s.Init(env, s)
	rt := env.RT
	rt.Lock()
	for i := 0; i < s.cfg.PoolSize; i++ {
		s.addWorkerLocked()
	}
	rt.Unlock()
}

// addWorkerLocked creates and starts one pool thread. Between requests a
// worker acts — takes the queue mutex — under an identity of its own.
func (s *Scheduler) addWorkerLocked() *adets.Thread {
	pt := &pdsThread{s: s, state: stRunning, inActive: true}
	t := s.Registry.Init(&pt.Thread, "pds-worker", "", pt)
	t.Logical = wire.LogicalID("pds-worker-" + strconv.FormatUint(t.ID, 10))
	pt.between = t.Logical
	s.pool = append(s.pool, t)
	s.Enter(t)
	s.Registry.Start(pt)
	return t
}

// Run implements adets.Job: the worker loop, until Stop or retirement.
func (pt *pdsThread) Run() {
	pt.s.env.RT.Unlock()
	pt.s.workerLoop(&pt.Thread)
	pt.s.env.RT.Lock()
	pt.s.Exit(&pt.Thread)
}

// Stop implements adets.Scheduler.
func (s *Scheduler) Stop() {
	s.Monitor.Stop()
	rt := s.env.RT
	rt.Lock()
	if s.convTimer != nil {
		rt.StopTimerLocked(s.convTimer)
		s.convTimer = nil
	}
	rt.Unlock()
}

func st(t *adets.Thread) *pdsThread { return t.Sched.(*pdsThread) }

// Submit implements adets.Scheduler: the request is queued (or assigned
// round-robin); an idle thread is scheduled to resume at the next round
// start — Submit is a totally-ordered event, so this is deterministic.
func (s *Scheduler) Submit(req adets.Request) {
	rt := s.env.RT
	rt.Lock()
	defer rt.Unlock()
	if s.Stopped() {
		return
	}
	s.env.Obs.Submitted()
	if s.cfg.Assignment == RoundRobin {
		n := len(s.pool)
		if n == 0 {
			return
		}
		var t *adets.Thread
		for tries := 0; tries < n; tries++ {
			cand := s.pool[s.rr%n]
			s.rr++
			if st(cand).state != stRetired {
				t = cand
				break
			}
		}
		if t == nil {
			return
		}
		pt := st(t)
		pt.ownQueue = append(pt.ownQueue, req)
		if pt.state == stIdle {
			// Wake immediately at this totally-ordered point and rejoin the
			// active set: while it runs, no round can start, so all workers
			// woken in one burst suspend together and form one round.
			pt.state = stRunning
			pt.inActive = true
			t.Unpark(rt)
		}
	} else {
		s.queue = append(s.queue, req)
		if s.awaiting != nil {
			// The queue-mutex holder is parked on the empty queue: hand the
			// request straight to it.
			w := s.awaiting
			s.awaiting = nil
			w.Unpark(rt)
		} else {
			// Resume the lowest-ID idle worker, if any; it rejoins at the
			// next round start by reacquiring the queue mutex.
			for _, t := range s.pool {
				if st(t).state == stIdle {
					s.wakeIdleLocked(t, QueueMutex)
					break
				}
			}
		}
	}
	s.roundCheckLocked()
}

// wakeIdleLocked schedules an idle thread to rejoin at the next round
// start, reacquiring resume (or just running if resume is empty).
func (s *Scheduler) wakeIdleLocked(t *adets.Thread, resume adets.MutexID) {
	pt := st(t)
	if pt.state != stIdle {
		return
	}
	pt.state = stResuming
	pt.resume = resume
}

// --- worker loop ---

func (s *Scheduler) workerLoop(t *adets.Thread) {
	rt := s.env.RT
	for {
		var req adets.Request
		var ok bool
		if s.cfg.Assignment == RoundRobin {
			req, ok = s.nextOwn(t)
		} else {
			req, ok = s.nextSynchronized(t)
		}
		if !ok {
			return // stopped or retired
		}
		t.Logical = req.Logical
		req.Exec(t)
		rt.Lock()
		t.Logical = st(t).between
		rt.Unlock()
	}
}

// nextSynchronized implements the paper's synchronized assignment: lock the
// queue mutex through PDS itself, pop, unlock. A worker that finds the
// queue empty "suspends temporarily due to the lack of requests" (paper
// Section 4.2): it releases the queue mutex, leaves the active set at the
// next round boundary, and is resumed deterministically by a later Submit.
//
// Known limitation of the default mode, shared with the published
// algorithm: the empty-queue check races with request arrival, so strict
// replica determinism of the request-to-thread assignment holds under the
// paper's own operating assumption — threads kept busy (pool sized to the
// load); the resize rule shrinks surplus threads so the steady state
// satisfies it. Config.ArtificialRequests enables the paper's remedy: the
// empty queue yields an artificial no-op request, the worker releases the
// queue mutex and idles, and queue-mutex grants follow the fixed worker
// rotation (see artTurnLocked) — every wake-up happens at a totally-ordered
// point and the k-th pop always lands on worker k mod N, so the assignment
// race disappears entirely.
func (s *Scheduler) nextSynchronized(t *adets.Thread) (adets.Request, bool) {
	if err := s.Lock(t, QueueMutex); err != nil {
		return adets.Request{}, false
	}
	rt := s.env.RT
	for {
		rt.Lock()
		if s.Stopped() || st(t).state == stRetired {
			rt.Unlock()
			return adets.Request{}, false
		}
		if len(s.queue) > 0 {
			req := s.queue[0]
			s.queue = s.queue[1:]
			rt.Unlock()
			if err := s.Unlock(t, QueueMutex); err != nil {
				return adets.Request{}, false
			}
			return req, true
		}
		if s.cfg.ArtificialRequests {
			// Artificial request (paper Section 4.2): the empty queue is
			// treated as a no-op request that completes instantly — release
			// the queue mutex and go idle. A later Submit wakes the
			// lowest-ID idle worker at its totally-ordered position; the
			// round machinery re-grants the queue mutex in thread-ID order.
			pt := st(t)
			pt.state = stIdle
			pt.committed = true
			s.env.Obs.Unlock(QueueMutex, string(t.Logical))
			s.Release(s.Mutex(QueueMutex))
			s.roundCheckLocked()
			s.CheckQuiesce()
			t.Park(rt)
			if s.Stopped() || pt.state == stRetired {
				rt.Unlock()
				return adets.Request{}, false
			}
			// Woken via the round's queue-mutex grant: we hold it again.
			rt.Unlock()
			continue
		}
		// Empty queue: keep the queue mutex and park as running. Rounds
		// stall while we wait — unless one is needed, in which case
		// roundCheckLocked converts us to idle (releasing the mutex) per
		// the paper's temporary-suspension rule. Either wake path leaves
		// us holding the queue mutex again.
		s.awaiting = t
		s.roundCheckLocked()
		s.CheckQuiesce()
		t.Park(rt)
		if s.awaiting == t {
			s.awaiting = nil
		}
		if s.Stopped() || st(t).state == stRetired {
			rt.Unlock()
			return adets.Request{}, false
		}
		rt.Unlock()
	}
}

// nextOwn implements round-robin assignment: pop the worker's own queue.
func (s *Scheduler) nextOwn(t *adets.Thread) (adets.Request, bool) {
	rt := s.env.RT
	rt.Lock()
	defer rt.Unlock()
	pt := st(t)
	for {
		if s.Stopped() || pt.state == stRetired {
			return adets.Request{}, false
		}
		if len(pt.ownQueue) > 0 {
			req := pt.ownQueue[0]
			pt.ownQueue = pt.ownQueue[1:]
			return req, true
		}
		pt.state = stIdle
		pt.committed = true
		s.roundCheckLocked()
		s.CheckQuiesce()
		t.Park(rt)
	}
}

// --- round machinery ---

// roundCheckLocked starts a new round when no active thread is running and
// progress is possible. It first revisits PDS-2 pending second grants —
// every suspension event may have unblocked one. A worker parked on the
// empty request queue counts as running; if a round is genuinely needed
// (object-lock requests, resumptions, queued requests, or the grow rule),
// the worker is converted to idle first — the paper's "suspend a thread
// temporarily due to the lack of requests".
func (s *Scheduler) roundCheckLocked() {
	s.roundCheck(false)
}

// roundCheck(force) performs the round condition evaluation; force is set
// by the expired grace timer and allows converting the queue-waiting worker
// to idle so the round can start.
func (s *Scheduler) roundCheck(force bool) {
	if s.Stopped() {
		return
	}
	s.evalSecondGrantsLocked()
	candidates := 0
	nonWaiting := 0
	needRound := false
	for _, t := range s.pool {
		pt := st(t)
		switch pt.state {
		case stRetired:
			continue
		case stWaiting:
		default:
			nonWaiting++
		}
		if pt.inActive && pt.state == stRunning && t != s.awaiting {
			return // someone is genuinely executing
		}
		if pt.state == stSuspended || pt.state == stResuming {
			candidates++
		}
		if pt.state == stResuming ||
			(pt.state == stSuspended && pt.reqMutex != QueueMutex) ||
			(pt.state == stSuspended && pt.reqMutex == QueueMutex && len(s.queue) > 0) {
			needRound = true
		}
	}
	if nonWaiting < s.cfg.MinSpare {
		needRound = true // grow rule must run (condvar deadlock escape)
	}
	if !needRound || candidates == 0 && nonWaiting >= s.cfg.MinSpare {
		return
	}
	if s.awaiting != nil {
		if !force {
			// A round is needed but the queue-mutex holder still waits for
			// a request. In-flight requests land within the grace period
			// and keep rounds aligned with the assignment chain; only if
			// none arrives is the worker suspended temporarily.
			if s.convTimer == nil {
				s.convTimer = s.env.RT.AfterLocked(s.cfg.AssignGrace, "pds-grace", func() {
					s.env.RT.Lock()
					s.convTimer = nil
					if !s.Stopped() {
						s.roundCheck(true)
					}
					s.env.RT.Unlock()
				})
			}
			return
		}
		// Temporarily suspend the queue-waiting worker so the round can
		// start: it leaves the active set and releases the queue mutex.
		w := s.awaiting
		s.awaiting = nil
		pt := st(w)
		pt.state = stIdle
		pt.committed = true
		s.env.Obs.Unlock(QueueMutex, string(w.Logical))
		s.Mutex(QueueMutex).Owner = ""
		// The freed queue mutex is re-granted by the round (or by
		// releaseLocked below the round) to a suspended requester.
	}
	s.startRoundLocked(nonWaiting)
}

// startRoundLocked performs the membership adjustment and the phase-1
// grants of a new round.
func (s *Scheduler) startRoundLocked(nonWaiting int) {
	s.round++
	s.env.Obs.Round(s.round)
	// Membership: waiting/idle/nested-suspended threads leave the active
	// set; resuming threads rejoin with their pending reacquisition.
	for _, t := range s.pool {
		pt := st(t)
		switch pt.state {
		case stWaiting, stIdle, stNestedSusp:
			pt.inActive = false
		case stResuming:
			pt.inActive = true
			if pt.resume == "" {
				pt.state = stRunning
				t.Unpark(s.env.RT)
			} else {
				pt.state = stSuspended
				pt.reqMutex = pt.resume
				pt.eligible = true
			}
			pt.resume = ""
		case stSuspended:
			pt.inActive = true
			pt.eligible = true // requests made last round become grantable
		}
		pt.got1 = false
		pt.phase2 = false
		pt.committed = false
		pt.secondPending = false
	}
	// Resize rule (Section 4.2): grow when fewer than MinSpare non-waiting
	// threads remain (the all-threads-waiting deadlock); shrink — but never
	// below the configured pool size — when resize-added threads sit idle
	// with no requests in sight.
	for nonWaiting < s.cfg.MinSpare {
		t := s.addWorkerLocked()
		st(t).inActive = true
		nonWaiting++
	}
	if len(s.queue) == 0 {
		live := 0
		for _, t := range s.pool {
			if st(t).state != stRetired {
				live++
			}
		}
		for _, t := range s.pool {
			if live <= s.cfg.PoolSize {
				break
			}
			pt := st(t)
			idleRR := pt.state == stIdle
			idleSync := pt.state == stSuspended && pt.reqMutex == QueueMutex && !pt.secondPending
			if idleRR || idleSync {
				pt.state = stRetired
				pt.inActive = false
				t.Unpark(s.env.RT)
				live--
			}
		}
	}
	// Phase-1 grants in increasing thread-ID order.
	for _, t := range s.pool {
		pt := st(t)
		if pt.inActive && pt.state == stSuspended && pt.eligible {
			s.tryGrantThreadLocked(t)
		}
	}
}

// tryGrantThreadLocked grants t its pending request if the mutex is free.
func (s *Scheduler) tryGrantThreadLocked(t *adets.Thread) {
	pt := st(t)
	mu := s.Mutex(pt.reqMutex)
	if mu.Owner != "" {
		return
	}
	if pt.reqMutex == QueueMutex && s.cfg.ArtificialRequests && !s.artTurnLocked(t) {
		// Rotation mode: the grant waits for the designated worker (or for
		// a request to pop). Another candidate, or a later round, retries.
		return
	}
	s.Grant(mu, t)
	if pt.reqMutex == QueueMutex && s.cfg.ArtificialRequests {
		s.qRot++
	}
	pt.state = stRunning
	pt.eligible = false
	if pt.reqMutex != QueueMutex {
		// The scheduler-internal queue mutex does not consume the thread's
		// per-round phase budget; only object-level locks do.
		pt.got1 = true
		pt.committed = false // its second action is open again
	}
	t.Unpark(s.env.RT)
	s.evalSecondGrantsLocked()
}

// evalSecondGrantsLocked revisits PDS-2 pending second requests in thread-ID
// order. A second request of thread T for mutex m is granted once
//
//	(i)  every active thread with a lower ID has received its phase-1
//	     grant AND committed its second action (second grant received, or
//	     suspended for the rest of the round), and
//	(ii) m is free.
//
// Both conditions flip at deterministic points of other threads' execution
// (grants, unlocks, suspensions), never on raw request-arrival timing —
// this is what makes the immediate second grant replica-deterministic.
// Re-evaluated after every such event.
func (s *Scheduler) evalSecondGrantsLocked() {
	if s.cfg.Variant != PDS2 {
		return
	}
	progress := true
	for progress {
		progress = false
		for _, t := range s.pool {
			pt := st(t)
			if !pt.secondPending {
				continue
			}
			if !s.allLowerCommittedLocked(t) {
				continue
			}
			mu := s.Mutex(pt.reqMutex)
			if mu.Owner != "" {
				continue
			}
			s.Grant(mu, t)
			pt.secondPending = false
			pt.state = stRunning
			pt.phase2 = true
			pt.committed = true
			t.Unpark(s.env.RT)
			progress = true
		}
	}
}

// allLowerCommittedLocked reports whether every active lower-ID thread has
// received its phase-1 grant and committed its second action.
func (s *Scheduler) allLowerCommittedLocked(t *adets.Thread) bool {
	for _, o := range s.pool {
		if o.ID >= t.ID {
			break
		}
		pt := st(o)
		if !pt.inActive || pt.state == stRetired {
			continue
		}
		if !pt.got1 || !pt.committed {
			return false
		}
	}
	return true
}

// Release implements adets.Strategy: it frees mu and grants it to the
// lowest-ID eligible suspended requester of the current round ("as soon as T1
// unlocks m, T2 may execute concurrently"); pending PDS-2 second requests get
// the leftovers.
func (s *Scheduler) Release(mu *adets.Mutex) {
	mu.Owner = ""
	for _, t := range s.pool {
		pt := st(t)
		if pt.inActive && pt.state == stSuspended && pt.eligible && pt.reqMutex == mu.ID {
			s.tryGrantThreadLocked(t)
			if mu.Owner != "" {
				return
			}
			// Refused (artificial-requests rotation): keep looking for the
			// designated worker among the remaining candidates.
		}
	}
	s.evalSecondGrantsLocked()
}

// artTurnLocked reports whether the next queue-mutex grant belongs to t
// under the artificial-requests rotation: grants are rationed to the live
// workers in fixed pool order, one per queued request, so the k-th grant —
// and with it the k-th pop — lands on worker k mod N regardless of how
// request arrivals interleave with local execution.
func (s *Scheduler) artTurnLocked(t *adets.Thread) bool {
	if len(s.queue) == 0 {
		return false
	}
	live := uint64(0)
	for _, o := range s.pool {
		if st(o).state != stRetired {
			live++
		}
	}
	if live == 0 {
		return false
	}
	k := s.qRot % live
	for _, o := range s.pool {
		if st(o).state == stRetired {
			continue
		}
		if k == 0 {
			return o == t
		}
		k--
	}
	return false
}

// --- scheduler interface: synchronization hooks ---

// Lock implements adets.Scheduler. The first request after a round start
// suspends the thread (PDS-1); under PDS-2 a second request during phase 1
// may be granted immediately.
func (s *Scheduler) Lock(t *adets.Thread, m adets.MutexID) error {
	rt := s.env.RT
	rt.Lock()
	defer rt.Unlock()
	if s.Stopped() {
		return adets.ErrStopped
	}
	pt := st(t)
	pt.state = stSuspended
	pt.reqMutex = m
	pt.eligible = false // becomes grantable at the next round start
	if s.cfg.Variant == PDS2 && pt.got1 && !pt.phase2 && m != QueueMutex {
		// Second request within the round (PDS-2): not immediately
		// suspended — it stays grantable until the round ends.
		pt.secondPending = true
	} else {
		pt.committed = true // this round's participation is decided
	}
	return s.AwaitGrant(t, s.Mutex(m)) // granted by the round machinery
}

// Blocked implements adets.Strategy: a thread that parks is suspended for the
// round check. A waiter (paper Fig. 2) leaves the active set at the next
// round boundary; so does a thread in a nested invocation under
// NestedSuspend, while under NestedBlockRound it goes on counting as running
// — the round cannot start while the reply is outstanding, exactly the
// behaviour evaluated in the paper. Lock recorded its own request.
func (s *Scheduler) Blocked(t *adets.Thread) {
	pt := st(t)
	switch t.Parked() {
	case adets.ForCond:
		pt.state = stWaiting
		pt.committed = true
	case adets.ForReply:
		if s.cfg.Nested != NestedSuspend {
			return
		}
		pt.state = stNestedSusp
		pt.committed = true
	}
	s.roundCheckLocked()
}

// Reacquire implements adets.Strategy: a notified or timed-out waiter rejoins
// at the next round start, reacquiring the mutex from that round on.
func (s *Scheduler) Reacquire(w *adets.Thread, mu *adets.Mutex) {
	pt := st(w)
	pt.state = stResuming
	pt.resume = mu.ID
	s.roundCheckLocked()
}

// Runnable implements adets.Strategy for the nested reply (mutex grants are
// the rounds' and unpark by themselves): under NestedSuspend the thread
// resumes at the next round boundary, with no mutex to reacquire — up to one
// round of delay; under NestedBlockRound at once.
func (s *Scheduler) Runnable(t *adets.Thread) {
	if s.cfg.Nested != NestedSuspend {
		t.Unpark(s.env.RT)
		return
	}
	pt := st(t)
	pt.state = stResuming
	pt.resume = ""
	s.roundCheckLocked()
}

// Yield implements adets.Scheduler (no-op under the round model).
func (s *Scheduler) Yield(*adets.Thread) {}

// ViewChanged implements adets.Scheduler: PDS needs no communication and no
// membership information — its signature advantage (Section 3.2).
func (s *Scheduler) ViewChanged(gcs.View) {}

// Quiesce implements adets.Scheduler. PDS rounds run autonomously — no
// communication is involved — so stability means the round machinery has
// reached a fixpoint: every worker is parked on the empty request queue
// (idle, awaiting, or suspended on the queue mutex with nothing to pop),
// waiting on a condition variable, or blocked in a nested invocation. A
// worker that is executing, resuming, or suspended on an object mutex will
// cause further local progress (another round) and rules stability out.
func (s *Scheduler) Quiesce(report func(drained bool)) {
	s.Monitor.Quiesce(func(bool) { report(s.drainedLocked()) })
}

// drainedLocked: no request is mid-execution (at a stable point that means
// waiting or in a nested invocation) and none is queued. The pool itself
// never drains.
func (s *Scheduler) drainedLocked() bool {
	for _, t := range s.pool {
		if r := t.Parked(); st(t).state != stRetired && (r == adets.ForCond || r == adets.ForReply) {
			return false
		}
	}
	return len(s.queue) == 0
}

// Stable implements adets.Strategy.
func (s *Scheduler) Stable(t *adets.Thread) bool {
	pt := st(t)
	switch {
	case pt.state == stRetired, pt.state == stWaiting, pt.state == stNestedSusp:
	case pt.state == stRunning && t.Parked() == adets.ForReply:
	case pt.state == stIdle && len(pt.ownQueue) == 0:
	case t == s.awaiting && len(s.queue) == 0:
	case pt.state == stSuspended && pt.reqMutex == QueueMutex &&
		!pt.secondPending && len(s.queue) == 0:
		// Parked between requests: only a future Submit can trigger a
		// round that re-grants the queue mutex.
	default:
		return false // executing, resuming, or another round is still due
	}
	return true
}
