package vtime

import (
	"container/heap"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/replobj/replobj/internal/ring"
)

// DeadlockInfo describes a global deadlock detected by the virtual kernel:
// every tracked goroutine is parked and no timer is pending, so virtual time
// can never advance again.
type DeadlockInfo struct {
	// Now is the virtual time at which the deadlock was detected.
	Now time.Duration
	// Parked lists the diagnostic names of all parked goroutines.
	Parked []string
}

func (d DeadlockInfo) String() string {
	return fmt.Sprintf("vtime: global deadlock at %v; parked: [%s]",
		d.Now, strings.Join(d.Parked, ", "))
}

// VirtualRuntime is the discrete-event implementation of Runtime.
// Create one with Virtual.
//
// Inside a Run, tracked goroutines take turns: one executes at a time, and
// a goroutine woken while another executes (by Unpark, Go or a fired timer)
// waits in a queue, in the order the wakeups were issued, until the one
// executing parks, sleeps or exits. A simulation then follows one
// interleaving, whatever GOMAXPROCS, the race detector or the machine's
// load: goroutines woken at the same virtual instant run in wake order, not
// in the order the Go scheduler happens to pick. Outside every Run the
// untracked owner works beside the tracked goroutines, and woken goroutines
// run at once, as they would on the real runtime.
type VirtualRuntime struct {
	mu       sync.Mutex
	now      time.Duration
	runnable int // tracked goroutines executing or waiting for their turn
	live     int
	// active counts the woken goroutines that are executing; ready holds
	// the turn channels of those waiting, oldest wakeup first.
	active  int
	ready   ring.Queue[chan struct{}]
	seq     uint64
	timers  timerHeap
	parked  map[*Parker]struct{}
	stopped bool
	// runs counts Run calls in progress. Outside Run the untracked owner of
	// the runtime (main, a test) is presumed to be at work — building a
	// cluster, between two Runs — and counts as runnable: it can still wake
	// any parked goroutine, so the kernel neither advances time nor declares
	// a deadlock until some Run is blocked waiting for the tracked world.
	runs int
	// dead is set, under mu, by the terminal deadlock report. From then on
	// Lock and Unlock are no-ops, so the report's panic unwinds safely both
	// through callers that pair Lock/Unlock by hand and through callers that
	// deferred their Unlock.
	dead atomic.Bool

	// onDeadlock, if non-nil, is invoked (with the kernel lock held) when a
	// global deadlock is detected. If it returns true the kernel assumes the
	// handler resolved the situation (e.g. by recording it for a test);
	// otherwise the kernel panics with the DeadlockInfo.
	onDeadlock func(DeadlockInfo) bool
}

var _ Runtime = (*VirtualRuntime)(nil)

// Virtual returns a new discrete-event runtime starting at time zero.
func Virtual() *VirtualRuntime {
	return &VirtualRuntime{parked: make(map[*Parker]struct{})}
}

// SetDeadlockHandler installs fn as the global-deadlock handler. fn runs
// with the kernel lock held and must not block; returning true suppresses
// the default panic. Used by tests that assert deadlock behaviour (the
// paper's motivation for multithreading, Section 2).
func (rt *VirtualRuntime) SetDeadlockHandler(fn func(DeadlockInfo) bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.onDeadlock = fn
}

// Now implements Runtime.
func (rt *VirtualRuntime) Now() time.Duration {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.now
}

// NowLocked implements Runtime.
func (rt *VirtualRuntime) NowLocked() time.Duration { return rt.now }

// Go implements Runtime.
func (rt *VirtualRuntime) Go(name string, fn func()) {
	rt.mu.Lock()
	rt.GoLocked(name, fn)
	rt.mu.Unlock()
}

// GoLocked implements Runtime.
func (rt *VirtualRuntime) GoLocked(_ string, fn func()) {
	rt.live++
	var turn chan struct{}
	if rt.mustWaitLocked() {
		turn = make(chan struct{}, 1)
	}
	rt.wakeLocked(turn)
	go func() {
		if turn != nil {
			<-turn
		}
		defer func() {
			rt.mu.Lock()
			rt.live--
			rt.yieldLocked()
			rt.mu.Unlock()
		}()
		fn()
	}()
}

// mustWaitLocked reports whether a goroutine woken now has to wait for its
// turn: inside a Run, while another one executes.
func (rt *VirtualRuntime) mustWaitLocked() bool { return rt.runs > 0 && rt.active > 0 }

// wakeLocked makes a goroutine runnable. It executes at once, through turn,
// unless it has to wait (mustWaitLocked): then it joins the ready queue.
// A nil turn stands for a goroutine not yet started that never has to wait.
func (rt *VirtualRuntime) wakeLocked(turn chan struct{}) {
	rt.runnable++
	if rt.mustWaitLocked() {
		rt.ready.Push(turn)
		return
	}
	rt.active++
	if turn != nil {
		turn <- struct{}{}
	}
}

// yieldLocked is an executing goroutine's park, sleep or exit: the oldest
// waiting goroutine takes its turn (outside every Run, all of them do), and
// with nothing runnable left virtual time advances.
func (rt *VirtualRuntime) yieldLocked() {
	rt.runnable--
	rt.active--
	for rt.active <= 0 || rt.runs == 0 {
		turn, ok := rt.ready.Pop()
		if !ok {
			break
		}
		rt.active++
		turn <- struct{}{}
	}
	if rt.runnable == 0 {
		rt.advanceLocked()
	}
}

// Lock implements Runtime.
func (rt *VirtualRuntime) Lock() {
	if rt.dead.Load() {
		return
	}
	rt.mu.Lock()
	if rt.dead.Load() {
		// Died while we waited: the matching Unlock will be a no-op.
		rt.mu.Unlock()
	}
}

// Unlock implements Runtime.
func (rt *VirtualRuntime) Unlock() {
	if rt.dead.Load() {
		return
	}
	rt.mu.Unlock()
}

// run is Run on the virtual kernel: fn counts as a Run in progress (see
// runs) from before it becomes runnable until it returns, with no window
// in which a parking goroutine could see one without the other.
func (rt *VirtualRuntime) run(name string, fn func()) {
	done := make(chan struct{})
	rt.mu.Lock()
	rt.runs++
	rt.GoLocked(name, func() {
		defer func() {
			rt.mu.Lock()
			rt.runs--
			rt.mu.Unlock()
			close(done)
		}()
		fn()
	})
	rt.mu.Unlock()
	<-done
}

// Park implements Runtime.
func (rt *VirtualRuntime) Park(p *Parker) {
	rt.parkTimeoutLocked(p, 0)
}

// ParkTimeout implements Runtime.
func (rt *VirtualRuntime) ParkTimeout(p *Parker, d time.Duration) bool {
	return rt.parkTimeoutLocked(p, d)
}

func (rt *VirtualRuntime) parkTimeoutLocked(p *Parker, d time.Duration) bool {
	if p.permit {
		p.permit = false
		return false
	}
	p.parked = true
	p.timedOut = false
	ch := p.wake()
	if d > 0 {
		p.timer = rt.addTimerLocked(d, p.name+"/timeout", func() {
			// Runs with the kernel lock held during advanceLocked.
			if p.parked {
				p.parked = false
				p.timedOut = true
				delete(rt.parked, p)
				rt.wakeLocked(ch)
			}
		})
	}
	rt.parked[p] = struct{}{}
	rt.yieldLocked()
	rt.mu.Unlock()
	<-ch
	rt.mu.Lock()
	if p.timer != nil {
		p.timer.cancelled = true
		p.timer = nil
	}
	return p.timedOut
}

// Unpark implements Runtime.
func (rt *VirtualRuntime) Unpark(p *Parker) {
	if !p.parked {
		p.permit = true
		return
	}
	p.parked = false
	delete(rt.parked, p)
	rt.wakeLocked(p.ch)
}

// Sleep implements Runtime.
func (rt *VirtualRuntime) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	rt.mu.Lock()
	rt.parkTimeoutLocked(NewParker("sleep"), d)
	rt.mu.Unlock()
}

// After implements Runtime. The callback runs as a new tracked goroutine.
func (rt *VirtualRuntime) After(d time.Duration, name string, fn func()) *Timer {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.AfterLocked(d, name, fn)
}

// AfterLocked implements Runtime.
func (rt *VirtualRuntime) AfterLocked(d time.Duration, name string, fn func()) *Timer {
	if rt.stopped {
		return &Timer{cancelled: true}
	}
	// The callback runs with the kernel lock held, from advanceLocked.
	return rt.addTimerLocked(d, name, func() { rt.GoLocked(name, fn) })
}

// Stop implements Runtime.
func (rt *VirtualRuntime) Stop() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.stopped = true
	rt.timers = nil
}

// StopTimer cancels t. It reports whether the timer was pending (and is now
// guaranteed not to fire). Must be called without the runtime lock held.
func (rt *VirtualRuntime) StopTimer(t *Timer) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.StopTimerLocked(t)
}

// StopTimerLocked implements Runtime.
func (rt *VirtualRuntime) StopTimerLocked(t *Timer) bool {
	if t == nil || t.cancelled {
		return false
	}
	t.cancelled = true
	return true
}

func (rt *VirtualRuntime) addTimerLocked(d time.Duration, name string, fire func()) *Timer {
	rt.seq++
	t := &Timer{deadline: rt.now + d, seq: rt.seq, name: name, fire: fire}
	heap.Push(&rt.timers, t)
	return t
}

// advanceLocked is called whenever the runnable count reaches zero. Inside
// a Run (see runs) it fires timers (advancing virtual time) until some
// goroutine becomes runnable again, the runtime is stopped, or a deadlock is
// detected.
func (rt *VirtualRuntime) advanceLocked() {
	for rt.runnable == 0 && rt.runs > 0 && !rt.stopped {
		// Drop cancelled timers lazily.
		for len(rt.timers) > 0 && rt.timers[0].cancelled {
			heap.Pop(&rt.timers)
		}
		if len(rt.timers) == 0 {
			if rt.live == 0 {
				return // clean quiescence: every tracked goroutine finished
			}
			info := DeadlockInfo{Now: rt.now, Parked: rt.parkedNamesLocked()}
			if rt.onDeadlock != nil && rt.onDeadlock(info) {
				return
			}
			// Terminal: stop the kernel, retire the lock (see dead) and
			// release it before panicking, so that neither a caller's
			// deferred Unlock nor a recovering test binary's next Lock can
			// turn the report into a double unlock or a wedge.
			rt.stopped = true
			rt.dead.Store(true)
			rt.mu.Unlock()
			panic(info.String())
		}
		t := heap.Pop(&rt.timers).(*Timer)
		if t.deadline > rt.now {
			rt.now = t.deadline
		}
		t.fire()
	}
}

func (rt *VirtualRuntime) parkedNamesLocked() []string {
	names := make([]string, 0, len(rt.parked))
	for p := range rt.parked {
		names = append(names, p.Name())
	}
	sort.Strings(names)
	return names
}

// timerHeap orders timers by deadline, breaking ties by creation sequence so
// equal-deadline timers fire in a deterministic order.
type timerHeap []*Timer

func (h timerHeap) Len() int { return len(h) }

func (h timerHeap) Less(i, j int) bool {
	if h[i].deadline != h[j].deadline {
		return h[i].deadline < h[j].deadline
	}
	return h[i].seq < h[j].seq
}

func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *timerHeap) Push(x any) {
	t := x.(*Timer)
	t.index = len(*h)
	*h = append(*h, t)
}

func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}
