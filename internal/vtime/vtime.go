// Package vtime provides the execution substrate shared by the whole
// middleware stack: a Runtime abstraction over time, goroutine tracking,
// and parking/unparking of threads.
//
// Two implementations exist:
//
//   - Virtual() — a discrete-event kernel. All coordination in the stack is
//     written as a monitor over the single kernel lock. Virtual time only
//     advances when every tracked goroutine is parked (on a lock queue, a
//     condition variable, a message in flight, or a simulated computation).
//     This reproduces the paper's measurement methodology — computations are
//     "simulated by suspending the request-handler thread for the duration
//     of the computation time" — while making experiments fast and
//     repeatable, and it detects global deadlocks exactly.
//
//   - Real() — the same interface over sync primitives and wall-clock time,
//     used for real deployments (TCP transport) and validation runs. Its
//     Node() gives each node hosted in one process a lock of its own on
//     one shared clock.
//
// Conventions (enforced by the implementations where possible):
//
//   - Every goroutine that interacts with the runtime must be spawned via
//     Go (or wrapped with Run). Untracked goroutines may only communicate
//     with tracked ones through plain Go channels.
//   - Park, ParkTimeout and Unpark must be called while holding the runtime
//     lock; Park releases the lock while blocked and reacquires it before
//     returning, like sync.Cond.Wait.
//   - Sleep and Now must be called without holding the runtime lock.
//   - Timer callbacks run as fresh tracked goroutines.
//   - Inside a Run on the virtual kernel, tracked goroutines execute one at
//     a time (see VirtualRuntime). One that waits for another must wait
//     through the runtime — Park, Sleep, a Mailbox — never by spinning or
//     on a plain channel: the one it waits for runs only once it parks.
package vtime

import "time"

// Runtime is the execution substrate: a clock, a goroutine tracker, and a
// global monitor lock with park/unpark thread-blocking primitives.
type Runtime interface {
	// Now returns the current time as an offset from the runtime's start.
	Now() time.Duration

	// NowLocked is Now for callers that already hold the runtime lock
	// (schedulers timestamp scheduling decisions while updating state).
	NowLocked() time.Duration

	// Go spawns a tracked goroutine. The name is used in deadlock and
	// diagnostic dumps. Must be called without the runtime lock held.
	Go(name string, fn func())

	// GoLocked is Go for callers that already hold the runtime lock
	// (schedulers spawn threads while updating their state).
	GoLocked(name string, fn func())

	// Lock acquires the global runtime lock. All middleware state machines
	// are monitors over this lock.
	Lock()
	// Unlock releases the global runtime lock.
	Unlock()

	// Park blocks the calling tracked goroutine until p is unparked.
	// Must be called with the runtime lock held; the lock is released while
	// parked and reacquired before Park returns. If p holds a permit from an
	// earlier Unpark, Park consumes it and returns immediately.
	Park(p *Parker)

	// ParkTimeout is Park with a deadline. It reports whether the wakeup was
	// caused by the timeout (true) rather than by Unpark (false).
	// d <= 0 blocks forever, like Park.
	ParkTimeout(p *Parker, d time.Duration) bool

	// Unpark wakes the goroutine parked on p, or deposits a permit if none
	// is parked. Must be called with the runtime lock held.
	Unpark(p *Parker)

	// Sleep blocks the calling tracked goroutine for d. It models both
	// simulated computation (the paper's 100 ms "compute" steps) and real
	// waiting. Must be called without the runtime lock.
	Sleep(d time.Duration)

	// After schedules fn to run as a new tracked goroutine once d has
	// elapsed. The returned timer can be stopped before it fires.
	// Must be called without the runtime lock held.
	After(d time.Duration, name string, fn func()) *Timer

	// AfterLocked is After for callers that already hold the runtime lock
	// (state machines frequently arm timers while updating their state).
	AfterLocked(d time.Duration, name string, fn func()) *Timer

	// StopTimer cancels t, reporting whether it was still pending. Must be
	// called without the runtime lock held. Stopping a nil or already-fired
	// timer is a no-op that returns false.
	StopTimer(t *Timer) bool

	// StopTimerLocked is StopTimer for callers holding the runtime lock.
	StopTimerLocked(t *Timer) bool

	// Stop shuts the runtime down: pending timers are dropped and new timers
	// become no-ops. Tracked goroutines that are still parked are not woken;
	// Stop is for tearing down a finished simulation or deployment.
	Stop()
}

// Parker is a one-goroutine parking slot with binary-permit semantics
// (like java.util.concurrent.LockSupport). The zero value is a usable,
// unnamed parker: its owner can hold it by value and name it in place.
type Parker struct {
	name     string        // diagnostic name: name, or name/sub (see Name)
	sub      Namer         // nil for a name alone
	ch       chan struct{} // made by the first park that blocks (see wake)
	parked   bool
	permit   bool
	timedOut bool
	timer    *Timer      // virtual mode: pending ParkTimeout deadline
	wall     *time.Timer // real mode: ParkTimeout deadline, reused across parks
	next     *Parker     // link in a Mailbox's waiter or free list
}

// NewParker returns a parker with the given diagnostic name.
// Pinned by benchmark/probes.go.
func NewParker(name string) *Parker {
	return &Parker{name: name}
}

// Namer is the second part of a parker's name: its text is read only when
// the name is, so an owner names a parker after a value it holds (a
// pointer to it) without building the text.
type Namer interface{ String() string }

// SetName names the parker name/sub (name alone with no sub, or one whose
// text is empty), the parts joined only when Name or the kernel's deadlock
// report asks.
func (p *Parker) SetName(name string, sub Namer) { p.name, p.sub = name, sub }

// Name returns the parker's diagnostic name.
func (p *Parker) Name() string {
	if p.sub == nil {
		return p.name
	}
	if s := p.sub.String(); s != "" {
		return p.name + "/" + s
	}
	return p.name
}

// Reset readies p for its next owner: everything but its wake channel and
// its wall timer is zeroed — the name, a permit an Unpark left, the
// timed-out flag and the virtual timer — so that the owner's next Park
// blocks until an Unpark of its own. p must not be parked. Runtime lock
// required.
func (p *Parker) Reset() {
	if p.parked {
		panic("vtime: Reset of a parked Parker " + p.Name())
	}
	*p = Parker{ch: p.ch, wall: p.wall}
}

// wake returns the channel a blocked park is woken through, made by the
// first park that has to block (most scheduler threads never do). Runtime
// lock required; Unpark sends only to a parker it found parked.
func (p *Parker) wake() chan struct{} {
	if p.ch == nil {
		p.ch = make(chan struct{}, 1)
	}
	return p.ch
}

// Timer is a handle to a scheduled callback.
type Timer struct {
	deadline  time.Duration
	seq       uint64
	name      string
	fire      func() // virtual mode: invoked with the kernel lock held
	cancelled bool
	index     int         // heap index (virtual mode)
	stopReal  func() bool // real mode cancellation
}

// Deadline returns the absolute runtime time at which the timer fires.
func (t *Timer) Deadline() time.Duration { return t.deadline }

// Run executes fn on a tracked goroutine and blocks the caller until it
// returns. It is the bridge from untracked code (main, tests, benchmarks)
// into a runtime. On the virtual kernel, time advances and deadlocks are
// declared only while a Run is in progress: outside it the untracked caller
// itself counts as runnable.
func Run(rt Runtime, name string, fn func()) {
	if v, ok := rt.(*VirtualRuntime); ok {
		v.run(name, fn)
		return
	}
	done := make(chan struct{})
	rt.Go(name, func() {
		defer close(done)
		fn()
	})
	<-done
}
