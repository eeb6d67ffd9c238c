// Package cc implements ADETS-CC, conflict-class parallel dispatch — the
// first strategy in this codebase that parallelizes the *dispatch* layer
// rather than only the lock layer. It follows the Early Scheduling line of
// work on parallel state-machine replication (Alchieri et al., "Early
// Scheduling in Parallel State Machine Replication"; Marandi & Pedone,
// "Optimistic Parallel State-Machine Replication"): the application
// declares, per request, which conflict classes the request touches; the
// sequencer's total order is then partitioned deterministically onto a
// fixed pool of worker lanes (one lane per class, hash-mapped), and
// requests whose class sets are disjoint execute truly in parallel.
//
// Determinism argument: lane assignment is a pure function of the request
// content and the lane count (see AssignLanes), and every enqueue happens
// at the totally-ordered submit point, so all replicas build byte-identical
// lane queues. Within a lane, requests execute in queue (= total) order;
// a request occupying several lanes — including the "global" request that
// declared no classes and therefore occupies every lane — only starts once
// it heads *all* its lanes, which makes it a deterministic barrier. Because
// conflicting requests always share a lane, any state they both touch is
// accessed in total order on every replica; the real-time interleaving of
// non-conflicting requests across lanes is invisible to replicated state by
// construction, which is exactly why it may remain unobserved by the trace
// digests (only the deterministic lane *assignment* is traced, never the
// cross-lane start order).
//
// A ticket gets a pooled worker, and joins the live threads, when it starts.
//
// View changes insert a fence — a ticket spanning every lane — at their
// totally-ordered delivery point: all requests ordered before the view
// drain from their lanes before any request ordered after it starts, giving
// deterministic lane draining on membership changes.
package cc

import (
	"time"

	"github.com/replobj/replobj/internal/adets"
	"github.com/replobj/replobj/internal/gcs"
)

// DefaultLanes is the worker-lane pool size when none is configured.
const DefaultLanes = 8

// Option configures the scheduler.
type Option func(*Scheduler)

// WithLanes sets the worker-lane pool size. All replicas of a group must
// use the same value — the lane count is an input of the deterministic
// class→lane mapping.
func WithLanes(n int) Option {
	return func(s *Scheduler) {
		if n > 0 {
			s.laneCount = n
		}
	}
}

// ticket is one lane-queue entry: a request's thread occupying its assigned
// lanes, one allocation a request and the job a worker runs once it starts,
// or a fence, which spans every lane and whose Thread is never started.
type ticket struct {
	adets.Thread
	lanes   []int  // sorted, duplicate-free; empty for callbacks (lane bypass)
	one     [1]int // lanes of a single-class request
	fence   bool
	started bool // given a worker (or fence completed)
	s       *Scheduler
	exec    func(*adets.Thread)
}

// Run implements adets.Job: the request, then the ticket leaves its lanes
// and the next heads start.
func (tk *ticket) Run() {
	s := tk.s
	s.Execute(&tk.Thread, tk.exec)
	s.removeLocked(tk)
	s.pumpLocked()
	s.Exit(&tk.Thread)
}

// Scheduler implements adets.Scheduler with conflict-class parallel
// dispatch (MA over declared classes). Mutexes, nested-invocation parking,
// Stop and Quiesce are the embedded Monitor's; CC adds the lanes: when a
// request may start. The Monitor's Quiesce is the all-lane drain: fences
// carry no thread and are removed eagerly by pumpLocked, and a queued ticket
// waits behind a started one, so an empty thread set implies empty lanes.
type Scheduler struct {
	adets.Monitor
	env       adets.Env
	laneCount int

	// All fields below are guarded by the runtime lock.
	queues [][]*ticket // one FIFO of tickets per lane
}

var _ adets.Strategy = (*Scheduler)(nil)

// New returns an ADETS-CC scheduler.
func New(opts ...Option) *Scheduler {
	s := &Scheduler{laneCount: DefaultLanes}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Name implements adets.Scheduler.
func (s *Scheduler) Name() string { return "ADETS-CC" }

// LaneCount returns the configured worker-lane pool size.
func (s *Scheduler) LaneCount() int { return s.laneCount }

// Capabilities implements adets.Scheduler. Like basic SAT, ADETS-CC offers
// plain (framework-reentrant) locks but no condition variables: a
// deterministic notify/wait race across parallel lanes would reintroduce
// the cross-lane ordering the strategy exists to avoid.
func (s *Scheduler) Capabilities() adets.Capabilities {
	return adets.Capabilities{
		Coordination:      "Locks",
		DeadlockFree:      "NI+CB",
		Deployment:        "manual",
		Multithreading:    "MA (classes)",
		ReentrantLocks:    true,
		NestedInvocations: true,
		Callbacks:         true,
	}
}

// Start implements adets.Scheduler.
func (s *Scheduler) Start(env adets.Env) {
	s.env = env
	s.Init(env, s)
	s.queues = make([][]*ticket, s.laneCount)
	env.Obs.Lanes(s.laneCount)
}

func st(t *adets.Thread) *ticket { return t.Sched.(*ticket) }

// Submit implements adets.Scheduler. It runs at the totally-ordered
// delivery point: the lane assignment computed here is a pure function of
// the ordered request stream and is recorded into the per-lane trace
// streams. Callbacks bypass the lanes entirely — the originating thread of
// the logical chain is parked at the head of its lanes, so queueing the
// callback behind it would deadlock; running it immediately is safe because
// it belongs to the same logical thread (paper Section 3.1).
func (s *Scheduler) Submit(req adets.Request) {
	rt := s.env.RT
	rt.Lock()
	defer rt.Unlock()
	if s.Stopped() {
		return
	}
	s.env.Obs.Submitted()
	tk := &ticket{s: s, exec: req.Exec}
	s.Registry.Init(&tk.Thread, "cc", req.Thread(), tk)
	if req.Callback {
		tk.started = true // lane bypass: run immediately
		s.Enter(&tk.Thread)
		s.Registry.Start(tk)
		return
	}
	// The trace position is the total-order seq of the delivery, not a
	// local submission count — a replica restored from a checkpoint never
	// saw the truncated prefix, but its lane trace must still line up with
	// replicas that executed it.
	s.planLocked(tk, req.Classes)
	for _, l := range tk.lanes {
		s.queues[l] = append(s.queues[l], tk)
		s.env.Obs.LaneAssign(l, tk.Logical, req.Seq)
	}
	s.pumpLocked()
}

// removeLocked deletes a ticket from every lane it occupies.
func (s *Scheduler) removeLocked(tk *ticket) {
	for _, l := range tk.lanes {
		q := s.queues[l]
		for i, x := range q {
			if x == tk {
				s.queues[l] = append(q[:i], q[i+1:]...)
				break
			}
		}
	}
}

// eligibleLocked reports whether tk heads every lane it occupies — the
// start condition that turns multi-lane tickets into barriers. Because all
// tickets enqueue atomically in total order, a ticket only ever waits for
// earlier-ordered tickets: the cross-lane wait-for relation follows the
// total order and cannot cycle.
func (s *Scheduler) eligibleLocked(tk *ticket) bool {
	for _, l := range tk.lanes {
		if len(s.queues[l]) == 0 || s.queues[l][0] != tk {
			return false
		}
	}
	return true
}

// pumpLocked starts every eligible lane head and completes eligible
// fences, repeating until no further progress — a fence completing can
// unblock heads in all lanes at once.
func (s *Scheduler) pumpLocked() {
	if s.Stopped() {
		return
	}
	for progressed := true; progressed; {
		progressed = false
		for l := 0; l < s.laneCount; l++ {
			q := s.queues[l]
			if len(q) == 0 {
				continue
			}
			h := q[0]
			if h.started || !s.eligibleLocked(h) {
				continue
			}
			progressed = true
			if h.fence {
				s.removeLocked(h)
				continue
			}
			h.started = true
			for _, hl := range h.lanes {
				s.env.Obs.LaneStart(hl)
			}
			s.Enter(&h.Thread)
			s.Registry.Start(h)
		}
	}
}

// Runnable implements adets.Strategy: lanes put no order on running threads.
// (Lock and Unlock are the Monitor's. Under correct class declarations every
// pair of requests locking the same mutex shares a conflict class and is
// therefore serialized by the lanes — the uncontended path is the common
// one, and the grant order per mutex is the lane (= total) order. The
// blocking path exists for defense in depth against mis-declared classes;
// it grants FIFO, which the chaos digests then validate.)
func (s *Scheduler) Runnable(t *adets.Thread) { t.Unpark(s.env.RT) }

// Blocked implements adets.Strategy: a blocked thread keeps occupying its
// lanes, so later same-class requests stay queued behind it — per-class
// program order is preserved; callbacks of the same logical thread bypass
// the lanes (see Submit) and therefore still make progress.
func (s *Scheduler) Blocked(*adets.Thread) {}

// Stable implements adets.Strategy: a started ticket blocked on a lock or in
// a nested invocation. A queued one is not live: with dispatch paused only a
// completing earlier ticket starts it, and Exit re-checks then.
func (s *Scheduler) Stable(t *adets.Thread) bool { return t.Parked() != adets.NotParked }

// Wait implements adets.Scheduler: unsupported. A deterministic
// notification order across concurrently executing lanes would require a
// cross-lane synchronization point, defeating the strategy; object code
// falls back to polling, as under SEQ and basic SAT.
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

// Yield implements adets.Scheduler (no-op: lanes already run in parallel;
// within a lane, yielding to a later-ordered request would break the
// per-class total order).
func (s *Scheduler) Yield(*adets.Thread) {}

// planLocked sets tk's lanes, a single class's inside the ticket.
func (s *Scheduler) planLocked(tk *ticket, classes []string) {
	if len(classes) == 1 {
		tk.one[0] = LaneOf(classes[0], s.laneCount)
		tk.lanes = tk.one[:]
	} else {
		tk.lanes = AssignLanes(classes, s.laneCount)
	}
}

// ViewChanged implements adets.Scheduler: a fence spanning every lane is
// inserted at the view's totally-ordered delivery position, draining all
// requests ordered before the membership change from their lanes before
// any request ordered after it may start.
func (s *Scheduler) ViewChanged(v gcs.View) {
	rt := s.env.RT
	rt.Lock()
	defer rt.Unlock()
	if s.Stopped() {
		return
	}
	s.env.Obs.ViewChange(v.Epoch)
	s.env.Obs.FenceInserted()
	f := &ticket{fence: true, lanes: make([]int, s.laneCount)}
	for i := range f.lanes {
		f.lanes[i] = i
	}
	for _, l := range f.lanes {
		s.queues[l] = append(s.queues[l], f)
	}
	s.pumpLocked()
}

// HandleOrdered implements adets.Scheduler.
func (s *Scheduler) HandleOrdered(string, any) bool { return false }
