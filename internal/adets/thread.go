package adets

import (
	"fmt"
	"time"

	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

// Thread is a physical request-handler thread under scheduler control.
//
// Numeric IDs are assigned in creation order. Because schedulers create
// threads only at totally-ordered points (request delivery, round starts),
// the numbering is identical on every replica and may be used for
// deterministic choices (PDS grants mutexes in increasing thread-ID order).
// Threads whose creation is not delivery-ordered (LSA's timeout threads)
// are identified by their deterministic logical thread instead.
//
// A thread is one allocation: the parker is held by value, the name is kept
// as (role, logical thread) until printed, and a scheduler's own per-thread
// record embeds the Thread (Registry.Init) and is the Job a pooled worker
// runs (Registry.Start). Goroutines are pooled, and so are the records of
// the strategies that make one per request (MAT, SAT, CC): once the thread
// has exited, Records.Put retires its record under the runtime lock and a
// later Submit takes it again (Records.Take). Retirement keeps only the
// parker's wake channel and wall timer; until Registry.Init makes the record
// a thread again it is not live, and Monitor.Grant and the strategies'
// Runnable panic on it. That is safe because every holder of a *Thread lets
// go of it before the thread's Monitor.Exit:
//   - a mutex's entry FIFO holds it while it is parked ForMutex, and the
//     grant pops it; a condition's FIFO and Monitor.waiting while it is
//     parked ForCond, and the notify or the ordered timeout takes it off,
//     the wait itself deleting waiting once it runs again; Monitor.threads
//     from Enter to Exit;
//   - MAT's succession queue until the thread's last scheduling point (the
//     Blocked before Exit), SAT's ready queue and active thread likewise,
//     CC's lane queues until its Run removes the ticket;
//   - the replica's nestedCall.thread (and schedtest's nested stack) from
//     the nested call's start to its end inside the request: the reply's
//     EndNested is what lets the thread go on, and exitNestedLocked deletes
//     the call before the request can return;
//   - a timed wait's timer holds a TimeoutMsg, a value naming the logical
//     thread, never the *Thread, and the wait stops it when it ends; the
//     parker's own virtual timer (ParkTimeout) is cancelled when the park
//     returns and its wall timer belongs to the parker for good.
//
// Only Stop breaks the rule: it wakes threads still in those queues, and
// they exit in place. A stopped scheduler takes no record again. LSA and
// SL keep a record per request: LSA's grant table names logical threads
// and may still name one whose physical thread exited (ROADMAP item 17), and
// SL's callbacks are rare.
//
// Unpark on a thread that is not parked leaves a permit, and the thread's
// next Park returns at once, whatever it parks for. So every Park site keeps
// one of two rules: either the park loops on its own condition (MAT's token
// wait, PDS's own queue), or the waker claims the thread under the runtime
// lock before it unparks it, so that no second waker can unpark it for the
// same park (the Monitor's parked reason, cleared by Grant and EndNested;
// SAT's active thread; SEQ's busy worker; PDS's worker state; the idle list
// of a pool worker, which parks on a parker of its own).
// A thread parked for a nested reply must never be woken by anything else:
// the permit would return BeginNested before the reply is there. A permit
// left on a thread when it exits dies with it: retirement clears both the
// parker's and the nested reply's.
//
// Pinned by benchmark/probes.go.
type Thread struct {
	// ID is the replica-deterministic creation index (see type comment).
	ID uint64
	// Logical is the logical thread this physical thread executes for.
	Logical wire.ThreadID

	parker vtime.Parker // named role/Logical

	// Scheduler-private per-thread state; owned by the algorithm (the
	// enclosing record, where that embeds the Thread).
	Sched any

	// The Monitor's record of the thread, guarded by the runtime lock. It
	// sits here and not in a table of the monitor because every strategy's
	// record already embeds the Thread: no second object, no lookup.
	waitSeq  uint64     // identifies the current (or last) condition wait
	parked   ParkReason // what the thread is parked for, NotParked once it has it
	timedOut bool       // the last wait was ended by its timeout
	permit   bool       // the nested reply arrived before the thread parked for it
	live     bool       // from Registry.Init until the record is retired
}

// ParkReason says what a thread parked in the Monitor is waiting for.
type ParkReason uint8

// A thread parks for a mutex (Lock, and a woken waiter re-entering its
// monitor), for a notification or for the reply to a nested invocation. The
// reason is cleared by whoever supplies the thing — the grant, the reply —
// not by the thread when it runs again, so a thread that has what it needs
// never looks blocked to a quiesce scan.
const (
	NotParked ParkReason = iota
	ForMutex
	ForCond
	ForReply
)

// Parked returns what t is parked for in the Monitor. Runtime lock required.
func (t *Thread) Parked() ParkReason { return t.parked }

// Park suspends the thread; the runtime lock must be held.
func (t *Thread) Park(rt vtime.Runtime) { rt.Park(&t.parker) }

// ParkTimeout suspends the thread for at most d; reports timeout. The
// runtime lock must be held.
func (t *Thread) ParkTimeout(rt vtime.Runtime, d time.Duration) bool {
	return rt.ParkTimeout(&t.parker, d)
}

// Unpark resumes the thread; the runtime lock must be held.
func (t *Thread) Unpark(rt vtime.Runtime) { rt.Unpark(&t.parker) }

// MustBeLive panics unless t is a thread now, not a retired record: a use
// after exit (a grant, a strategy's Runnable) must fail loudly rather than
// wake the request that takes the record next.
func (t *Thread) MustBeLive() {
	if !t.live {
		panic("adets: a retired thread record was granted a mutex or made runnable")
	}
}

// retire zeroes t but for its parker's wake channel and wall timer. Runtime
// lock required; t has exited.
func (t *Thread) retire() {
	t.parker.Reset()
	*t = Thread{parker: t.parker}
}

func (t *Thread) String() string {
	return fmt.Sprintf("thread{%d %s}", t.ID, t.parker.Name())
}

// Registry assigns deterministic thread IDs and runs the threads on a pool
// of tracked worker goroutines. One per scheduler instance; all methods
// require the runtime lock unless stated otherwise.
type Registry struct {
	rt      vtime.Runtime
	next    uint64
	idle    []*worker // parked between jobs, most recently idle last
	stopped bool
}

// Job is a thread's record as a worker runs it. Run is the thread's body,
// called holding the runtime lock and returning holding it, so that the
// thread's exit and the worker's park share one lock hold.
type Job interface{ Run() }

// worker is a pooled goroutine. Start and Stop take it off the idle list
// before they unpark it, so no second waker reaches the same park.
type worker struct {
	parker *vtime.Parker
	job    Job
}

// NewRegistry returns a Registry on rt.
func NewRegistry(rt vtime.Runtime) *Registry {
	return &Registry{rt: rt}
}

// Init makes the zero Thread t — embedded in sched, the scheduler's record
// for it — the registry's next thread, named role/logical. Runtime lock
// required: the ID must be taken at a deterministic point.
func (r *Registry) Init(t *Thread, role string, logical wire.ThreadID, sched any) *Thread {
	t.ID, t.Logical, t.Sched, t.live = r.next, logical, sched, true
	r.next++
	t.parker.SetName(role, &t.Logical)
	return t
}

// Start runs job on the most recently idle worker, or a new one, runnable
// here as a fresh goroutine was: virtual time keeps its wake order.
func (r *Registry) Start(job Job) {
	if n := len(r.idle); n > 0 {
		w := r.idle[n-1]
		r.idle, w.job = r.idle[:n-1], job
		r.rt.Unpark(w.parker)
		return
	}
	w := &worker{parker: vtime.NewParker("adets-worker"), job: job}
	r.rt.GoLocked("adets-worker", func() { r.work(w) })
}

// work runs jobs, parked in between, until Stop finds it idle or done.
func (r *Registry) work(w *worker) {
	r.rt.Lock()
	for w.job != nil {
		w.job.Run()
		if w.job = nil; !r.stopped {
			r.idle = append(r.idle, w)
			r.rt.Park(w.parker)
		}
	}
	r.rt.Unlock()
}

// Stop ends the idle workers now and the busy ones when their job returns.
func (r *Registry) Stop() {
	r.stopped = true
	for _, w := range r.idle {
		r.rt.Unpark(w.parker)
	}
	r.idle = nil
}

// Records is a scheduler's free list of its thread records, of type R
// (which embeds the Thread), guarded by the runtime lock. It has no cap: it
// never holds more records than the scheduler had at once, as the idle
// worker pool never holds more goroutines.
type Records[R any] struct{ free []*R }

// Take returns a retired record, or a new one.
func (rs *Records[R]) Take() *R {
	n := len(rs.free)
	if n == 0 {
		return new(R)
	}
	rec := rs.free[n-1]
	rs.free[n-1] = nil
	rs.free = rs.free[:n-1]
	return rec
}

// Put retires rec, whose Thread t has exited (Monitor.Exit), and keeps it
// for Take: rec is zeroed but for t's parker's wake channel and wall timer.
func (rs *Records[R]) Put(rec *R, t *Thread) {
	t.retire()
	kept := *t
	var zero R
	*rec = zero
	*t = kept
	rs.free = append(rs.free, rec)
}

// FIFO is a deterministic queue of threads — the building block for lock
// wait queues, condition-variable queues, and ready queues. The zero value
// is an empty queue.
type FIFO struct {
	items []*Thread
}

// Push appends t.
func (q *FIFO) Push(t *Thread) { q.items = append(q.items, t) }

// PushFront prepends t (used to prioritize callbacks, which unblock the
// logical thread the object is already waiting for).
func (q *FIFO) PushFront(t *Thread) {
	q.items = append([]*Thread{t}, q.items...)
}

// Pop removes and returns the head, or nil if empty. A queue it empties
// keeps its whole array, so that one thread at a time passing through
// (SAT's ready queue) allocates nothing.
func (q *FIFO) Pop() *Thread {
	if len(q.items) == 0 {
		return nil
	}
	t := q.items[0]
	q.items[0] = nil
	if len(q.items) == 1 {
		q.items = q.items[:0]
	} else {
		q.items = q.items[1:]
	}
	return t
}

// Peek returns the head without removing it, or nil.
func (q *FIFO) Peek() *Thread {
	if len(q.items) == 0 {
		return nil
	}
	return q.items[0]
}

// Remove deletes t from the queue, reporting whether it was present.
func (q *FIFO) Remove(t *Thread) bool {
	for i, x := range q.items {
		if x == t {
			q.items = append(q.items[:i], q.items[i+1:]...)
			return true
		}
	}
	return false
}

// Len returns the queue length.
func (q *FIFO) Len() int { return len(q.items) }
