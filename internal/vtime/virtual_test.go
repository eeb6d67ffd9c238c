package vtime

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestVirtualSleepAdvancesTime(t *testing.T) {
	rt := Virtual()
	defer rt.Stop()
	Run(rt, "main", func() {
		rt.Sleep(100 * time.Millisecond)
		if got := rt.Now(); got != 100*time.Millisecond {
			t.Errorf("Now() = %v, want 100ms", got)
		}
		rt.Sleep(250 * time.Millisecond)
		if got := rt.Now(); got != 350*time.Millisecond {
			t.Errorf("Now() = %v, want 350ms", got)
		}
	})
}

func TestVirtualParallelSleepsOverlap(t *testing.T) {
	// N goroutines each sleeping 100ms concurrently must finish at t=100ms,
	// not N*100ms: virtual time models unlimited CPUs, as the paper assumes.
	rt := Virtual()
	defer rt.Stop()
	Run(rt, "main", func() {
		done := NewMailbox[time.Duration](rt, "done")
		for i := 0; i < 10; i++ {
			rt.Go("worker", func() {
				rt.Sleep(100 * time.Millisecond)
				done.Put(rt.Now())
			})
		}
		for i := 0; i < 10; i++ {
			at, ok := done.Get()
			if !ok || at != 100*time.Millisecond {
				t.Errorf("worker finished at %v (ok=%v), want 100ms", at, ok)
			}
		}
	})
}

func TestVirtualZeroAndNegativeSleep(t *testing.T) {
	rt := Virtual()
	defer rt.Stop()
	Run(rt, "main", func() {
		rt.Sleep(0)
		rt.Sleep(-time.Second)
		if got := rt.Now(); got != 0 {
			t.Errorf("Now() = %v, want 0", got)
		}
	})
}

func TestVirtualParkUnpark(t *testing.T) {
	rt := Virtual()
	defer rt.Stop()
	Run(rt, "main", func() {
		p := NewParker("blocked")
		order := make(chan string, 4)
		rt.Go("waker", func() {
			rt.Sleep(50 * time.Millisecond)
			order <- "waking"
			rt.Lock()
			rt.Unpark(p)
			rt.Unlock()
		})
		rt.Lock()
		rt.Park(p)
		rt.Unlock()
		order <- "woken"
		if got := rt.Now(); got != 50*time.Millisecond {
			t.Errorf("woken at %v, want 50ms", got)
		}
		if first := <-order; first != "waking" {
			t.Errorf("order: got %q first, want waking", first)
		}
	})
}

func TestVirtualUnparkPermitBeforePark(t *testing.T) {
	rt := Virtual()
	defer rt.Stop()
	Run(rt, "main", func() {
		p := NewParker("p")
		rt.Lock()
		rt.Unpark(p) // deposits a permit
		rt.Park(p)   // consumes it, returns immediately
		rt.Unlock()
		if got := rt.Now(); got != 0 {
			t.Errorf("Now() = %v, want 0 (no blocking)", got)
		}
	})
}

func TestVirtualParkTimeoutFires(t *testing.T) {
	rt := Virtual()
	defer rt.Stop()
	Run(rt, "main", func() {
		p := NewParker("p")
		rt.Lock()
		timedOut := rt.ParkTimeout(p, 30*time.Millisecond)
		rt.Unlock()
		if !timedOut {
			t.Error("ParkTimeout = false, want true (timeout)")
		}
		if got := rt.Now(); got != 30*time.Millisecond {
			t.Errorf("Now() = %v, want 30ms", got)
		}
	})
}

func TestVirtualParkTimeoutUnparkedEarly(t *testing.T) {
	rt := Virtual()
	defer rt.Stop()
	Run(rt, "main", func() {
		p := NewParker("p")
		rt.Go("waker", func() {
			rt.Sleep(10 * time.Millisecond)
			rt.Lock()
			rt.Unpark(p)
			rt.Unlock()
		})
		rt.Lock()
		timedOut := rt.ParkTimeout(p, 500*time.Millisecond)
		rt.Unlock()
		if timedOut {
			t.Error("ParkTimeout = true, want false (unparked early)")
		}
		if got := rt.Now(); got != 10*time.Millisecond {
			t.Errorf("Now() = %v, want 10ms", got)
		}
		// The cancelled timeout timer must not fire later.
		rt.Sleep(time.Second)
		if got := rt.Now(); got != 1010*time.Millisecond {
			t.Errorf("Now() = %v, want 1010ms", got)
		}
	})
}

func TestVirtualAfterFiresInOrder(t *testing.T) {
	rt := Virtual()
	defer rt.Stop()
	Run(rt, "main", func() {
		got := make(chan int, 3)
		fired := NewParker("collector")
		n := 0
		record := func(id int) func() {
			return func() {
				rt.Lock()
				got <- id
				n++
				if n == 3 {
					rt.Unpark(fired)
				}
				rt.Unlock()
			}
		}
		rt.After(30*time.Millisecond, "t3", record(3))
		rt.After(10*time.Millisecond, "t1", record(1))
		rt.After(20*time.Millisecond, "t2", record(2))
		rt.Lock()
		rt.Park(fired)
		rt.Unlock()
		for want := 1; want <= 3; want++ {
			if id := <-got; id != want {
				t.Errorf("timer order: got %d, want %d", id, want)
			}
		}
	})
}

func TestVirtualEqualDeadlineTimersFireInCreationOrder(t *testing.T) {
	rt := Virtual()
	defer rt.Stop()
	Run(rt, "main", func() {
		got := make(chan int, 5)
		var mu sync.Mutex
		remaining := 5
		done := NewParker("done")
		for i := 0; i < 5; i++ {
			i := i
			rt.After(10*time.Millisecond, "tie", func() {
				mu.Lock()
				got <- i
				remaining--
				last := remaining == 0
				mu.Unlock()
				if last {
					rt.Lock()
					rt.Unpark(done)
					rt.Unlock()
				}
			})
		}
		rt.Lock()
		rt.Park(done)
		rt.Unlock()
		// Equal-deadline timers fire in creation order, but each callback is
		// a fresh goroutine; the kernel fires them one at a time only while
		// nothing is runnable, so ordering of the channel sends may still
		// interleave. We assert only the full set arrived.
		seen := make(map[int]bool)
		for i := 0; i < 5; i++ {
			seen[<-got] = true
		}
		if len(seen) != 5 {
			t.Errorf("got %d distinct timer ids, want 5", len(seen))
		}
	})
}

func TestVirtualStopTimerPreventsFire(t *testing.T) {
	rt := Virtual()
	defer rt.Stop()
	Run(rt, "main", func() {
		fired := false
		tm := rt.After(10*time.Millisecond, "t", func() { fired = true })
		if !rt.StopTimer(tm) {
			t.Error("StopTimer = false, want true")
		}
		if rt.StopTimer(tm) {
			t.Error("second StopTimer = true, want false")
		}
		rt.Sleep(100 * time.Millisecond)
		if fired {
			t.Error("stopped timer fired")
		}
	})
}

func TestVirtualDeadlockDetection(t *testing.T) {
	rt := Virtual()
	defer rt.Stop()
	detected := make(chan DeadlockInfo, 1)
	rt.SetDeadlockHandler(func(info DeadlockInfo) bool {
		select {
		case detected <- info:
		default:
		}
		// Resolve by unparking everything so the test can finish.
		for p := range rt.parked {
			rt.Unpark(p)
		}
		return true
	})
	Run(rt, "main", func() {
		p := NewParker("stuck-thread")
		rt.Lock()
		rt.Park(p) // nobody will ever unpark this
		rt.Unlock()
	})
	info := <-detected
	if len(info.Parked) != 1 || info.Parked[0] != "stuck-thread" {
		t.Errorf("deadlock parked = %v, want [stuck-thread]", info.Parked)
	}
}

func TestVirtualDeadlockPanicsWithoutHandler(t *testing.T) {
	rt := Virtual()
	defer rt.Stop()
	panicked := make(chan any, 1)
	Run(rt, "main", func() {
		defer func() { panicked <- recover() }()
		p := NewParker("alone")
		rt.Lock()
		rt.Park(p)
		rt.Unlock()
	})
	if v := <-panicked; v == nil {
		t.Fatal("expected deadlock panic, got none")
	}
}

// The terminal report must reach a recover (or the process's crash output)
// intact when it unwinds through a deferred Unlock — Mailbox.get's shape.
// It used to unlock first and then die in the deferred second unlock with
// "fatal error: sync: unlock of unlocked mutex", which no recover catches
// and which hid the DeadlockInfo.
func TestVirtualDeadlockReportSurvivesDeferredUnlock(t *testing.T) {
	rt := Virtual()
	defer rt.Stop()
	panicked := make(chan any, 1)
	Run(rt, "main", func() {
		defer func() { panicked <- recover() }()
		NewMailbox[int](rt, "empty").Get()
	})
	msg, _ := (<-panicked).(string)
	if !strings.Contains(msg, "global deadlock") || !strings.Contains(msg, "empty/get") {
		t.Fatalf("panic = %q, want the DeadlockInfo naming empty/get", msg)
	}
	// The retired lock must not wedge or double-unlock later users.
	rt.Lock()
	rt.Unlock()
}

// An untracked goroutine that starts tracked loops and then keeps working
// (or idles) before its first Run, or between two Runs, is not deadlocked:
// it can still make the parked loops runnable. Clusters are built exactly
// this way — Group.Start, then Run.
func TestVirtualNoDeadlockOutsideRun(t *testing.T) {
	rt := Virtual()
	defer rt.Stop()
	rt.SetDeadlockHandler(func(info DeadlockInfo) bool {
		t.Errorf("deadlock declared outside Run: %v", info)
		return true
	})
	mb := NewMailbox[int](rt, "loop")
	sum := 0
	finished := make(chan struct{})
	rt.Go("loop", func() {
		defer close(finished)
		for {
			v, ok := mb.Get()
			if !ok {
				return
			}
			sum += v
		}
	})
	awaitParked := func() {
		for {
			rt.mu.Lock()
			n := len(rt.parked)
			rt.mu.Unlock()
			if n == 1 {
				return
			}
			runtime.Gosched()
		}
	}
	// Construct-then-idle: the loop parks with nothing runnable and no timer
	// while this (untracked) goroutine is still "constructing".
	awaitParked()
	Run(rt, "main", func() { mb.Put(1) })
	// Between two Runs the loop parks again.
	awaitParked()
	Run(rt, "main", func() {
		mb.Put(2)
		mb.Close()
	})
	<-finished
	if sum != 3 {
		t.Errorf("sum = %d, want 3", sum)
	}
}

func TestVirtualStopDropsTimers(t *testing.T) {
	rt := Virtual()
	fired := make(chan struct{}, 1)
	// Registered from untracked code: with no tracked goroutine running, the
	// kernel has no occasion to advance, so the timer stays pending.
	rt.After(time.Hour, "never", func() { fired <- struct{}{} })
	rt.Stop()
	select {
	case <-fired:
		t.Error("timer fired after Stop")
	default:
	}
	// After on a stopped runtime is a no-op.
	tm := rt.After(time.Millisecond, "dead", func() { fired <- struct{}{} })
	if rt.StopTimer(tm) {
		t.Error("StopTimer on post-Stop timer = true, want false")
	}
}

func TestVirtualManyGoroutinesStress(t *testing.T) {
	rt := Virtual()
	defer rt.Stop()
	const n = 200
	Run(rt, "main", func() {
		results := NewMailbox[time.Duration](rt, "results")
		for i := 0; i < n; i++ {
			d := time.Duration(i%17+1) * time.Millisecond
			rt.Go("w", func() {
				rt.Sleep(d)
				rt.Sleep(d)
				results.Put(rt.Now())
			})
		}
		max := time.Duration(0)
		for i := 0; i < n; i++ {
			if v, ok := results.Get(); ok && v > max {
				max = v
			}
		}
		if max != 34*time.Millisecond {
			t.Errorf("latest finish = %v, want 34ms", max)
		}
	})
}

// TestVirtualWakeOrderIsRunOrder: goroutines woken at one virtual instant
// run one at a time, in the order they were woken, on every run — not in
// the order the Go scheduler happens to pick.
func TestVirtualWakeOrderIsRunOrder(t *testing.T) {
	wakes := []int{5, 2, 7, 0, 3, 6, 1, 4}
	for round := 0; round < 50; round++ {
		rt := Virtual()
		var order []int
		Run(rt, "main", func() {
			done := NewMailbox[int](rt, "done")
			ps := make([]*Parker, len(wakes))
			for i := range ps {
				p := NewParker("w")
				ps[i] = p
				rt.Go("w", func() {
					rt.Lock()
					rt.Park(p)
					rt.Unlock()
					// Unlocked: only the goroutine whose turn it is runs.
					order = append(order, i)
					done.Put(i)
				})
			}
			rt.Sleep(time.Millisecond) // every worker has parked
			rt.Lock()
			for _, i := range wakes {
				rt.Unpark(ps[i])
			}
			rt.Unlock()
			for range ps {
				done.Get()
			}
		})
		rt.Stop()
		if !reflect.DeepEqual(order, wakes) {
			t.Fatalf("round %d: ran in order %v, want the wake order %v", round, order, wakes)
		}
	}
}
