package adets

import (
	"time"

	"github.com/replobj/replobj/internal/wire"
)

// Reentrancy implements reentrant locks on top of any scheduler that
// supports plain locks, exactly as the paper prescribes (Section 4): a
// per-(logical thread, mutex) hold counter, with only the 0→1 and 1→0
// transitions reaching the underlying algorithm.
//
// Hold counts are keyed by *logical* thread, so a callback executing on an
// extra physical thread may re-enter a mutex held by its originating
// request (the SA+L and MA models of Section 3.1).
//
// The invocation context owns one Reentrancy per scheduler instance. Its
// methods must be called without the runtime lock: they take it for every
// access to holds — that lock, and nothing else, guards the map — and release
// it before they delegate a blocking operation to the scheduler, which
// synchronizes internally. A logical thread's entries are only ever touched
// by its own physical threads, and of those at most one runs at a time (a
// callback runs while its originator is blocked in the nested invocation), so
// the count read under one hold of the lock is still right under the next.
type Reentrancy struct {
	sched Scheduler
	rt    interface {
		Lock()
		Unlock()
	}
	holds map[holdKey]int
	obs   *SchedObs
}

type holdKey struct {
	logical wire.ThreadID
	mutex   MutexID
}

// NewReentrancy returns a reentrancy layer over sched.
// Pinned by benchmark/probes.go.
func NewReentrancy(rt interface {
	Lock()
	Unlock()
}, sched Scheduler) *Reentrancy {
	return &Reentrancy{sched: sched, rt: rt, holds: make(map[holdKey]int)}
}

// SetObs attaches observability hooks (sampling re-entry depths). Must be
// called before the scheduler starts taking requests.
func (r *Reentrancy) SetObs(o *SchedObs) { r.obs = o }

// Lock acquires m for t, counting re-entries.
func (r *Reentrancy) Lock(t *Thread, m MutexID) error {
	k := holdKey{t.Logical, m}
	r.rt.Lock()
	n := r.holds[k]
	if n > 0 {
		r.holds[k] = n + 1
		r.rt.Unlock()
		r.obs.ReentrantDepth(n + 1)
		return nil
	}
	r.rt.Unlock()
	if err := r.sched.Lock(t, m); err != nil {
		return err
	}
	r.rt.Lock()
	r.holds[k] = 1
	r.rt.Unlock()
	return nil
}

// Unlock releases one hold of m; only the last release reaches the
// scheduler.
func (r *Reentrancy) Unlock(t *Thread, m MutexID) error {
	k := holdKey{t.Logical, m}
	r.rt.Lock()
	n := r.holds[k]
	if n == 0 {
		r.rt.Unlock()
		return ErrNotHeld
	}
	if n > 1 {
		r.holds[k] = n - 1
		r.rt.Unlock()
		return nil
	}
	delete(r.holds, k)
	r.rt.Unlock()
	return r.sched.Unlock(t, m)
}

// Wait fully releases the monitor (whatever the re-entry depth — Java
// semantics), waits on (m, c), and restores the depth before returning.
func (r *Reentrancy) Wait(t *Thread, m MutexID, c CondID, d time.Duration) (bool, error) {
	k := holdKey{t.Logical, m}
	r.rt.Lock()
	depth := r.holds[k]
	if depth == 0 {
		r.rt.Unlock()
		return false, ErrNotHeld
	}
	delete(r.holds, k)
	r.rt.Unlock()
	timedOut, err := r.sched.Wait(t, m, c, d)
	r.rt.Lock()
	// Restore the depth on success (the scheduler reacquired the
	// single-level lock) and on failure (every scheduler error path —
	// ErrUnsupported, ErrNotHeld, ErrStopped — rejects the wait before
	// releasing, so the monitor is still logically held).
	r.holds[k] = depth
	r.rt.Unlock()
	return timedOut, err
}

// Notify requires the monitor to be held, then delegates.
func (r *Reentrancy) Notify(t *Thread, m MutexID, c CondID) error {
	if !r.Held(t, m) {
		return ErrNotHeld
	}
	return r.sched.Notify(t, m, c)
}

// NotifyAll requires the monitor to be held, then delegates.
func (r *Reentrancy) NotifyAll(t *Thread, m MutexID, c CondID) error {
	if !r.Held(t, m) {
		return ErrNotHeld
	}
	return r.sched.NotifyAll(t, m, c)
}

// Held reports whether t's logical thread currently holds m.
func (r *Reentrancy) Held(t *Thread, m MutexID) bool {
	r.rt.Lock()
	defer r.rt.Unlock()
	return r.holds[holdKey{t.Logical, m}] > 0
}

// Depth returns t's current re-entry depth on m.
func (r *Reentrancy) Depth(t *Thread, m MutexID) int {
	r.rt.Lock()
	defer r.rt.Unlock()
	return r.holds[holdKey{t.Logical, m}]
}
