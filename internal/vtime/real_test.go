package vtime

import (
	"testing"
	"time"
)

// The real runtime runs the same contract over wall-clock time; these tests
// use short durations and generous assertions to stay robust on loaded CI.

func TestRealSleepAndNow(t *testing.T) {
	rt := Real()
	defer rt.Stop()
	before := rt.Now()
	rt.Sleep(20 * time.Millisecond)
	if got := rt.Now() - before; got < 15*time.Millisecond {
		t.Errorf("slept %v, want >= 15ms", got)
	}
}

func TestRealParkUnpark(t *testing.T) {
	rt := Real()
	defer rt.Stop()
	p := NewParker("p")
	done := make(chan struct{})
	rt.Go("waker", func() {
		time.Sleep(10 * time.Millisecond)
		rt.Lock()
		rt.Unpark(p)
		rt.Unlock()
	})
	rt.Go("sleeper", func() {
		rt.Lock()
		rt.Park(p)
		rt.Unlock()
		close(done)
	})
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Park never woke")
	}
}

func TestRealUnparkPermit(t *testing.T) {
	rt := Real()
	defer rt.Stop()
	p := NewParker("p")
	rt.Lock()
	rt.Unpark(p)
	rt.Park(p) // must not block
	rt.Unlock()
}

func TestRealParkTimeout(t *testing.T) {
	rt := Real()
	defer rt.Stop()
	p := NewParker("p")
	rt.Lock()
	timedOut := rt.ParkTimeout(p, 10*time.Millisecond)
	rt.Unlock()
	if !timedOut {
		t.Error("ParkTimeout = false, want true")
	}
}

func TestRealParkTimeoutUnparkedEarly(t *testing.T) {
	rt := Real()
	defer rt.Stop()
	p := NewParker("p")
	rt.Go("waker", func() {
		time.Sleep(5 * time.Millisecond)
		rt.Lock()
		rt.Unpark(p)
		rt.Unlock()
	})
	rt.Lock()
	timedOut := rt.ParkTimeout(p, 5*time.Second)
	rt.Unlock()
	if timedOut {
		t.Error("ParkTimeout = true, want false (unparked)")
	}
}

func TestRealAfterAndStopTimer(t *testing.T) {
	rt := Real()
	defer rt.Stop()
	fired := make(chan struct{}, 1)
	tm := rt.After(5*time.Millisecond, "t", func() { fired <- struct{}{} })
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("timer never fired")
	}
	tm2 := rt.After(time.Hour, "never", func() { t.Error("stopped timer fired") })
	if !rt.StopTimer(tm2) {
		t.Error("StopTimer = false, want true")
	}
	if rt.StopTimer(tm) && rt.StopTimer(nil) {
		t.Error("StopTimer on fired/nil timer = true, want false")
	}
}

func TestRealStopSuppressesCallbacks(t *testing.T) {
	rt := Real()
	rt.After(5*time.Millisecond, "t", func() { t.Error("callback ran after Stop") })
	rt.Stop()
	time.Sleep(20 * time.Millisecond)
}

func TestRealMailbox(t *testing.T) {
	rt := Real()
	defer rt.Stop()
	m := NewMailbox[int](rt, "m")
	done := make(chan int, 1)
	rt.Go("reader", func() {
		v, _ := m.Get()
		done <- v
	})
	time.Sleep(5 * time.Millisecond)
	m.Put(42)
	select {
	case v := <-done:
		if v != 42 {
			t.Errorf("got %d, want 42", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("mailbox Get never returned")
	}
}

// TestRealNodeSharesClockAndStop: a node of a real runtime reads the same
// clock, is stopped by the same Stop, and locks a mutex of its own.
func TestRealNodeSharesClockAndStop(t *testing.T) {
	rt := Real()
	defer rt.Stop()
	time.Sleep(5 * time.Millisecond) // a node's own clock origin would read ~0
	node := rt.Node()
	if d := node.Now() - rt.Now(); d < -time.Millisecond || d > time.Millisecond {
		t.Errorf("node clock is %v off the parent's", d)
	}

	node.Lock()
	locked := make(chan struct{})
	go func() {
		rt.Lock()
		rt.Unlock()
		close(locked)
	}()
	select {
	case <-locked:
	case <-time.After(2 * time.Second):
		t.Error("a locked node blocks its parent's Lock")
	}
	node.Unlock()

	fired := make(chan struct{}, 1)
	node.After(5*time.Millisecond, "t", func() { fired <- struct{}{} })
	rt.Stop()
	time.Sleep(20 * time.Millisecond)
	select {
	case <-fired:
		t.Error("a node's timer fired after the parent's Stop")
	default:
	}
	node.After(time.Millisecond, "late", func() { t.Error("timer armed after Stop fired") })
	time.Sleep(5 * time.Millisecond)
}
