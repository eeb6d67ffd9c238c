// Package adets is the deterministic thread-scheduling framework of the
// middleware — the Go counterpart of FTflex's ADETS (Aspectix DEterministic
// Thread Scheduler) plug-in interface, the paper's primary contribution
// surface.
//
// A Scheduler sits between the group communication module (which feeds it
// totally-ordered requests) and the object adapter (which executes method
// bodies). Every synchronization operation a method performs — lock,
// unlock, condition wait (optionally time-bounded), notify, yield — is
// routed to the scheduler, which decides deterministically, identically on
// every replica, which thread may proceed.
//
// The algorithms of the paper live in the subpackages seq (SEQ and SL), sat,
// mat, lsa and pds. This package holds what they share: the plug-in
// interface, the thread abstraction with logical-thread identity, the Monitor
// every lock-based strategy embeds (mutex table, deterministic wait queues,
// deterministic timeouts, nested-invocation parking, thread life cycle),
// reentrancy accounting above it, and the capability metadata reproduced in
// the paper's Table 1.
package adets

import (
	"errors"
	"time"

	"github.com/replobj/replobj/internal/gcs"
	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

// Common errors surfaced to object code through the invocation context.
var (
	// ErrNotHeld is returned when unlocking (or waiting on) a mutex the
	// logical thread does not hold.
	ErrNotHeld = errors.New("adets: mutex not held by calling thread")
	// ErrUnsupported is returned by schedulers that do not implement an
	// operation (e.g. condition variables under sequential scheduling —
	// the paper's polling fallback exists precisely for this case).
	ErrUnsupported = errors.New("adets: operation not supported by this scheduling strategy")
	// ErrStopped is returned when the scheduler has been stopped.
	ErrStopped = errors.New("adets: scheduler stopped")
	// ErrLockAfterDeclaration is returned when a thread acquires a mutex
	// after declaring it would not (the lock-prediction extension).
	ErrLockAfterDeclaration = errors.New("adets: lock acquired after NoMoreLocks declaration")
)

// LockPredictor is implemented by schedulers that exploit knowledge of a
// thread's future synchronization behaviour — the paper's follow-up
// direction ("code analysis and transformation allows improving concurrency
// on the basis of prediction of future synchronization steps", Section 3.1
// and reference [19]). Object code (or a static-analysis pass) declares
// that the current thread will request no further locks; the scheduler may
// then stop considering the thread for scheduling decisions it can no
// longer influence.
type LockPredictor interface {
	// NoMoreLocks declares that t will not acquire any further mutex for
	// the remainder of its request. A later Lock by t fails with
	// ErrLockAfterDeclaration.
	NoMoreLocks(t *Thread)
}

// MutexID names a mutex. Object code may use arbitrary strings; anonymous
// mutexes created at run time get deterministic generated names (see the
// ADETS-LSA dynamic mutex-ID discussion in the paper, Section 4.1).
type MutexID string

// CondID names a condition variable of a mutex. The empty CondID is the
// mutex's implicit condition variable (native Java model: exactly one per
// monitor); named conditions extend this to full monitors.
type CondID string

// Request is one totally-ordered unit of work handed to a scheduler.
type Request struct {
	// ID is the invocation id (at-most-once identity).
	ID wire.InvocationID
	// Logical is the logical thread this request belongs to.
	Logical wire.LogicalID
	// Callback is true when the logical thread already has a live blocked
	// physical thread on this replica — i.e. a nested invocation chain has
	// called back into its originating object (paper Section 3.1).
	Callback bool
	// Classes are the request's declared conflict classes (Early Scheduling
	// in Parallel SMR): requests with disjoint class sets may execute
	// concurrently under conflict-aware schedulers (ADETS-CC). Classes must
	// be a pure function of the request content so every replica computes
	// the same set. Nil or empty means "global" — the request conflicts
	// with everything. Schedulers without conflict awareness ignore it.
	Classes []string
	// Seq is the total-order position of the delivery that produced this
	// request, 0 when the submission is not directly stream-ordered (e.g. a
	// deferred callback flush). Schedulers that annotate traces with a
	// position must use it rather than a local counter: it is a pure
	// function of the ordered stream and so stays continuous across
	// checkpoint state transfer, where local counters reflect a replica's
	// own (possibly interrupted) submission history.
	Seq uint64
	// Exec runs the method body to completion on the thread the scheduler
	// assigns. It must be called exactly once.
	Exec func(t *Thread)
}

// Env is the set of middleware services a scheduler may use.
type Env struct {
	// RT is the execution substrate. Scheduler state machines are monitors
	// over RT's lock.
	RT vtime.Runtime
	// Self is this replica's node id; Peers are all replicas of the group
	// in rank order (including Self).
	Self  wire.NodeID
	Peers []wire.NodeID
	// SendPeer sends a message directly (FIFO, unordered with respect to
	// the request stream) to another replica. No scheduler uses it: LSA's
	// mutex tables travel through the total order.
	SendPeer func(to wire.NodeID, payload any)
	// BroadcastOrdered submits a scheduler message into the group's total
	// order. All replicas (including this one) receive it via
	// Scheduler.HandleOrdered exactly once per unique id. Used for
	// deterministic wait-timeout handling (paper Section 4.2).
	BroadcastOrdered func(id string, payload any)
	// Obs carries the metrics and schedule-trace hooks for this scheduler
	// instance. May be nil (all hooks no-op).
	Obs *SchedObs
}

// Scheduler is the ADETS plug-in interface. All methods except Start/Stop
// may be called concurrently from request-handler threads; implementations
// synchronize on Env.RT's lock.
//
// Lock, Unlock, Wait, Notify, NotifyAll and Yield are called by the
// invocation context of an executing thread. Reentrancy is handled by the
// framework (Reentrancy): schedulers always see single-level lock
// semantics, exactly as the paper prescribes for extending LSA and PDS
// (Section 4).
type Scheduler interface {
	// Name returns the strategy name as used in the paper (e.g. "ADETS-MAT").
	Name() string
	// Capabilities returns the strategy's Table 1 row.
	Capabilities() Capabilities

	// Start is called once before any request is submitted.
	Start(env Env)
	// Stop tears the scheduler down; blocked threads are abandoned.
	Stop()

	// Submit hands over the next totally-ordered request.
	Submit(req Request)

	// Lock blocks t until it holds m. Returns ErrStopped after Stop.
	Lock(t *Thread, m MutexID) error
	// Unlock releases m; the owner must be t's logical thread.
	Unlock(t *Thread, m MutexID) error
	// Wait atomically releases m and suspends t on (m, c); with d > 0 the
	// wait is time-bounded. It returns timedOut=true when the deterministic
	// timeout (not a notification) resumed the thread. The mutex is held
	// again on return.
	Wait(t *Thread, m MutexID, c CondID, d time.Duration) (timedOut bool, err error)
	// Notify wakes the deterministically-first waiter of (m, c), NotifyAll
	// all of them. The caller must hold m.
	Notify(t *Thread, m MutexID, c CondID) error
	NotifyAll(t *Thread, m MutexID, c CondID) error
	// Yield is a voluntary scheduling point (the paper's suggested remedy
	// for ADETS-MAT's serializing patterns, Section 5.3). Schedulers may
	// treat it as a no-op.
	Yield(t *Thread)

	// BeginNested blocks t for the duration of a nested invocation: the
	// invocation context sends the nested request, then calls BeginNested,
	// which suspends the thread (a scheduling point in most strategies)
	// until EndNested is called. EndNested is called by the dispatcher when
	// the reply is delivered — a totally-ordered point, so every replica
	// resumes the thread at the same logical position.
	BeginNested(t *Thread)
	EndNested(t *Thread)

	// ViewChanged reports a membership change, delivered at its exact
	// position in the total order (ADETS-LSA fail-over, Section 4.1).
	ViewChanged(v gcs.View)

	// Quiesce asks the scheduler for a stable point — the checkpoint
	// boundary of deterministic state capture. The caller guarantees that no
	// further ordered deliveries reach the scheduler until report is called
	// (the dispatcher is paused), so the scheduler's remaining activity is a
	// pure function of the ordered prefix. The scheduler must invoke report
	// exactly once (possibly synchronously, from inside Quiesce) with the
	// runtime lock held, as soon as it reaches a state where no thread can
	// make progress without a future delivery:
	//
	//   - drained=true: no live request threads remain — the object state is
	//     a consistent cut of the ordered prefix and may be snapshotted.
	//   - drained=false: live threads remain, but every one of them is
	//     blocked on a future delivery (a nested reply, a condition
	//     notification, an undelivered grant table). The checkpoint is
	//     skipped — deterministically, because the blocked-until-stable
	//     outcome is itself a function of the ordered prefix.
	//
	// At most one Quiesce may be outstanding at a time.
	Quiesce(report func(drained bool))

	// HandleOrdered processes a scheduler message that travelled through
	// the total order (deterministic timeouts). It must return true if
	// consumed.
	HandleOrdered(id string, payload any) bool
}

// EarlyScheduler is implemented by schedulers that can use a request's
// declared conflict classes before the total order assigns it a position —
// the "early scheduling" of Alchieri et al.: the replica feeds every
// optimistically delivered submit to EarlySubmit at arrival time, so the
// class→lane assignment is already computed (and the lane plan cached)
// when the ordered Submit arrives. Early plans are pure functions of the
// request content, identical to what Submit would compute, so consuming a
// cached plan never changes a scheduling decision — only when it is made.
// Plans for requests that are never ordered are dropped by a bounded cache
// and at quiesce boundaries.
type EarlyScheduler interface {
	// EarlySubmit announces a request's conflict classes ahead of its
	// ordered submission. Safe to call any number of times per id; calls
	// after the ordered Submit are ignored.
	EarlySubmit(id wire.InvocationID, classes []string)
}

// Capabilities is one row of the paper's Table 1 plus the feature flags the
// extended algorithms add.
type Capabilities struct {
	// Coordination: "implicit", "Locks", "Java", "Locks/Monitor".
	Coordination string
	// DeadlockFree: which external interactions are deadlock-free:
	// "-", "CB", "NI+CB", "NO".
	DeadlockFree string
	// Deployment: "-", "interception", "transformation", "manual". Our Go
	// implementations all use an explicit API, the "manual" column; the
	// value records what the surveyed original used.
	Deployment string
	// Multithreading: "S", "SL", "SA", "SA+L", "MA", "MA (restr.)".
	Multithreading string

	// Extended feature flags (Section 4).
	ReentrantLocks    bool
	ConditionVars     bool
	TimedWait         bool
	NestedInvocations bool
	Callbacks         bool
}
