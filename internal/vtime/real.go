package vtime

import (
	"sync"
	"sync/atomic"
	"time"
)

// RealRuntime implements Runtime over wall-clock time and standard sync
// primitives. It is used for real deployments (TCP transport) and for
// validating that results obtained under the virtual kernel carry over.
//
// The lock is the runtime's own; the clock origin and the stop are shared
// with every runtime derived from it by Node.
type RealRuntime struct {
	mu      sync.Mutex
	start   time.Time
	stopped *atomic.Bool
}

var _ Runtime = (*RealRuntime)(nil)

// Real returns a new wall-clock runtime starting now.
func Real() *RealRuntime {
	return &RealRuntime{start: time.Now(), stopped: new(atomic.Bool)}
}

// Node returns a runtime for one node of a deployment hosted in this
// process — a replica or a client: it has a lock of its own, so the node's
// monitors never wait for another node's, and it shares rt's clock origin
// (every node's Now is on one time axis) and rt's stop (Stop on any of them
// drops the timers of all). Parkers and mailboxes belong to the runtime
// they are used with; none may be shared between two nodes.
func (rt *RealRuntime) Node() *RealRuntime {
	return &RealRuntime{start: rt.start, stopped: rt.stopped}
}

// Now implements Runtime.
func (rt *RealRuntime) Now() time.Duration { return time.Since(rt.start) }

// NowLocked implements Runtime.
func (rt *RealRuntime) NowLocked() time.Duration { return time.Since(rt.start) }

// Go implements Runtime.
func (rt *RealRuntime) Go(_ string, fn func()) { go fn() }

// GoLocked implements Runtime.
func (rt *RealRuntime) GoLocked(_ string, fn func()) { go fn() }

// Lock implements Runtime.
func (rt *RealRuntime) Lock() { rt.mu.Lock() }

// Unlock implements Runtime.
func (rt *RealRuntime) Unlock() { rt.mu.Unlock() }

// Park implements Runtime.
func (rt *RealRuntime) Park(p *Parker) {
	if p.permit {
		p.permit = false
		return
	}
	p.parked = true
	ch := p.wake()
	rt.mu.Unlock()
	<-ch
	rt.mu.Lock()
}

// ParkTimeout implements Runtime.
func (rt *RealRuntime) ParkTimeout(p *Parker, d time.Duration) bool {
	if d <= 0 {
		rt.Park(p)
		return false
	}
	if p.permit {
		p.permit = false
		return false
	}
	p.parked = true
	ch := p.wake()
	rt.mu.Unlock()
	// One wall timer per parker, re-armed for every timed park.
	if p.wall == nil {
		p.wall = time.NewTimer(d)
	} else {
		p.wall.Reset(d)
	}
	select {
	case <-ch:
		p.wall.Stop()
		rt.mu.Lock()
		return false
	case <-p.wall.C:
		rt.mu.Lock()
		if !p.parked {
			// An Unpark raced with the timeout and won: it already cleared
			// parked and deposited a wake token under the lock. Consume it
			// and report a normal wakeup.
			<-ch
			return false
		}
		p.parked = false
		return true
	}
}

// Unpark implements Runtime.
func (rt *RealRuntime) Unpark(p *Parker) {
	if !p.parked {
		p.permit = true
		return
	}
	p.parked = false
	p.ch <- struct{}{}
}

// Sleep implements Runtime.
func (rt *RealRuntime) Sleep(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

// After implements Runtime. (The real implementation arms a timer without
// the lock: the stop it checks is atomic.)
func (rt *RealRuntime) After(d time.Duration, name string, fn func()) *Timer {
	return rt.AfterLocked(d, name, fn)
}

// AfterLocked implements Runtime.
func (rt *RealRuntime) AfterLocked(d time.Duration, name string, fn func()) *Timer {
	t := &Timer{deadline: rt.Now() + d, name: name}
	if rt.stopped.Load() {
		t.cancelled = true
		return t
	}
	af := time.AfterFunc(d, func() {
		if !rt.stopped.Load() {
			fn()
		}
	})
	t.stopReal = af.Stop
	return t
}

// StopTimer implements Runtime.
func (rt *RealRuntime) StopTimer(t *Timer) bool {
	return rt.StopTimerLocked(t)
}

// StopTimerLocked implements Runtime. (The real implementation has no
// lock-sensitive state; time.Timer.Stop is safe either way.)
func (rt *RealRuntime) StopTimerLocked(t *Timer) bool {
	if t == nil || t.cancelled || t.stopReal == nil {
		return false
	}
	t.cancelled = true
	return t.stopReal()
}

// Stop implements Runtime. It stops rt and every runtime that shares its
// stop (see Node).
func (rt *RealRuntime) Stop() {
	rt.stopped.Store(true)
}
