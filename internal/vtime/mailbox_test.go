package vtime

import (
	"runtime"
	"testing"
	"time"
)

func TestMailboxPutGetFIFO(t *testing.T) {
	rt := Virtual()
	defer rt.Stop()
	Run(rt, "main", func() {
		m := NewMailbox[int](rt, "m")
		for i := 1; i <= 5; i++ {
			m.Put(i)
		}
		if got := m.Len(); got != 5 {
			t.Errorf("Len = %d, want 5", got)
		}
		for i := 1; i <= 5; i++ {
			v, ok := m.Get()
			if !ok || v != i {
				t.Errorf("Get = (%d, %v), want (%d, true)", v, ok, i)
			}
		}
	})
}

func TestMailboxGetBlocksUntilPut(t *testing.T) {
	rt := Virtual()
	defer rt.Stop()
	Run(rt, "main", func() {
		m := NewMailbox[string](rt, "m")
		rt.Go("producer", func() {
			rt.Sleep(40 * time.Millisecond)
			m.Put("hello")
		})
		v, ok := m.Get()
		if !ok || v != "hello" {
			t.Errorf("Get = (%q, %v), want (hello, true)", v, ok)
		}
		if now := rt.Now(); now != 40*time.Millisecond {
			t.Errorf("unblocked at %v, want 40ms", now)
		}
	})
}

func TestMailboxTryGet(t *testing.T) {
	rt := Virtual()
	defer rt.Stop()
	Run(rt, "main", func() {
		m := NewMailbox[int](rt, "m")
		if _, ok := m.TryGet(); ok {
			t.Error("TryGet on empty = true, want false")
		}
		m.Put(7)
		if v, ok := m.TryGet(); !ok || v != 7 {
			t.Errorf("TryGet = (%d, %v), want (7, true)", v, ok)
		}
	})
}

func TestMailboxGetTimeout(t *testing.T) {
	rt := Virtual()
	defer rt.Stop()
	Run(rt, "main", func() {
		m := NewMailbox[int](rt, "m")
		_, ok, timedOut := m.GetTimeout(25 * time.Millisecond)
		if ok || !timedOut {
			t.Errorf("GetTimeout = (ok=%v, timedOut=%v), want (false, true)", ok, timedOut)
		}
		if now := rt.Now(); now != 25*time.Millisecond {
			t.Errorf("timed out at %v, want 25ms", now)
		}
		m.Put(1)
		v, ok, timedOut := m.GetTimeout(25 * time.Millisecond)
		if !ok || timedOut || v != 1 {
			t.Errorf("GetTimeout = (%d, %v, %v), want (1, true, false)", v, ok, timedOut)
		}
	})
}

func TestMailboxClose(t *testing.T) {
	rt := Virtual()
	defer rt.Stop()
	Run(rt, "main", func() {
		m := NewMailbox[int](rt, "m")
		results := NewMailbox[bool](rt, "results")
		rt.Go("reader", func() {
			_, ok := m.Get()
			results.Put(ok)
		})
		rt.Sleep(10 * time.Millisecond) // let the reader park
		m.Close()
		ok, _ := results.Get()
		if ok {
			t.Error("Get after Close = ok, want !ok")
		}
		// Put after close is dropped.
		m.Put(9)
		if _, ok := m.TryGet(); ok {
			t.Error("TryGet found item put after Close")
		}
		m.Close() // double close is a no-op
	})
}

func TestMailboxCloseDrainsBufferedItems(t *testing.T) {
	rt := Virtual()
	defer rt.Stop()
	Run(rt, "main", func() {
		m := NewMailbox[int](rt, "m")
		m.Put(1)
		m.Put(2)
		m.Close()
		if v, ok := m.Get(); !ok || v != 1 {
			t.Errorf("Get = (%d, %v), want (1, true)", v, ok)
		}
		if v, ok := m.Get(); !ok || v != 2 {
			t.Errorf("Get = (%d, %v), want (2, true)", v, ok)
		}
		if _, ok := m.Get(); ok {
			t.Error("Get on drained closed mailbox = ok, want !ok")
		}
	})
}

func TestMailboxManyProducersOneConsumer(t *testing.T) {
	rt := Virtual()
	defer rt.Stop()
	Run(rt, "main", func() {
		m := NewMailbox[int](rt, "m")
		const n = 50
		for i := 0; i < n; i++ {
			i := i
			rt.Go("producer", func() {
				rt.Sleep(time.Duration(i%7) * time.Millisecond)
				m.Put(i)
			})
		}
		seen := make(map[int]bool)
		for i := 0; i < n; i++ {
			v, ok := m.Get()
			if !ok {
				t.Fatal("mailbox closed unexpectedly")
			}
			seen[v] = true
		}
		if len(seen) != n {
			t.Errorf("received %d distinct items, want %d", len(seen), n)
		}
	})
}

// onBothRuntimes runs body on a tracked goroutine of a virtual and of a real
// runtime: the mailbox must behave the same on either.
func onBothRuntimes(t *testing.T, body func(t *testing.T, rt Runtime)) {
	t.Helper()
	for name, rt := range map[string]Runtime{"virtual": Virtual(), "real": Real()} {
		t.Run(name, func(t *testing.T) {
			defer rt.Stop()
			Run(rt, "main", func() { body(t, rt) })
		})
	}
}

// waitForReaders polls until n readers are parked on m.
func waitForReaders[T any](rt Runtime, m *Mailbox[T], n int) {
	for {
		rt.Lock()
		parked := 0
		for p := m.waitHead; p != nil; p = p.next {
			parked++
		}
		rt.Unlock()
		if parked == n {
			return
		}
		rt.Sleep(time.Millisecond)
	}
}

// idleParkers returns the parkers on m's free list.
func idleParkers[T any](rt Runtime, m *Mailbox[T]) []*Parker {
	rt.Lock()
	defer rt.Unlock()
	var out []*Parker
	for p := m.free; p != nil; p = p.next {
		out = append(out, p)
	}
	return out
}

// TestMailboxWakesReadersInArrivalOrder: with several readers blocked, each
// Put goes to the reader that has waited longest, and items keep their
// order.
func TestMailboxWakesReadersInArrivalOrder(t *testing.T) {
	onBothRuntimes(t, func(t *testing.T, rt Runtime) {
		type got struct{ reader, value int }
		m := NewMailbox[int](rt, "m")
		results := NewMailbox[got](rt, "results")
		const readers = 4
		for i := 0; i < readers; i++ {
			rt.Go("reader", func() {
				v, _ := m.Get()
				results.Put(got{i, v})
			})
			waitForReaders(rt, m, i+1)
		}
		for i := 0; i < readers; i++ {
			m.Put(100 + i)
			if g, _ := results.Get(); g != (got{i, 100 + i}) {
				t.Errorf("put %d: reader %d received %d, want reader %d to receive %d",
					i, g.reader, g.value, i, 100+i)
			}
		}
		if n := len(idleParkers(rt, m)); n != readers {
			t.Errorf("%d idle parkers after %d concurrent readers, want %d", n, readers, readers)
		}
	})
}

// TestMailboxReusesParkerAfterTimeout: a parker whose GetTimeout expired goes
// back to the free list clean, and the next blocking Get waits — and is
// woken — on that same parker.
func TestMailboxReusesParkerAfterTimeout(t *testing.T) {
	onBothRuntimes(t, func(t *testing.T, rt Runtime) {
		m := NewMailbox[int](rt, "m")
		if _, ok, timedOut := m.GetTimeout(5 * time.Millisecond); ok || !timedOut {
			t.Errorf("GetTimeout on an empty mailbox = (ok=%v, timedOut=%v), want a timeout", ok, timedOut)
			return
		}
		idle := idleParkers(rt, m)
		if len(idle) != 1 {
			t.Errorf("%d idle parkers after one timed-out reader, want 1", len(idle))
			return
		}
		rt.Go("producer", func() {
			waitForReaders(rt, m, 1)
			rt.Lock()
			reused := m.waitHead == idle[0]
			rt.Unlock()
			if !reused {
				t.Error("the blocked reader did not take the idle parker")
			}
			m.Put(7)
		})
		// A long deadline: an expiry left over from the first wait, or a
		// stale permit, would end this wait early and empty-handed.
		if v, ok, timedOut := m.GetTimeout(time.Minute); !ok || timedOut || v != 7 {
			t.Errorf("GetTimeout = (%d, ok=%v, timedOut=%v), want (7, true, false)", v, ok, timedOut)
		}
		if again := idleParkers(rt, m); len(again) != 1 || again[0] != idle[0] {
			t.Errorf("free list holds %d parkers after reuse, want the same single one", len(again))
		}
	})
}

// TestMailboxCloseWakesEveryReader: Close releases all parked readers, and
// their parkers all come back.
func TestMailboxCloseWakesEveryReader(t *testing.T) {
	onBothRuntimes(t, func(t *testing.T, rt Runtime) {
		m := NewMailbox[int](rt, "m")
		results := NewMailbox[bool](rt, "results")
		const readers = 3
		for i := 0; i < readers; i++ {
			rt.Go("reader", func() {
				_, ok := m.Get()
				results.Put(ok)
			})
		}
		waitForReaders(rt, m, readers)
		m.Close()
		for i := 0; i < readers; i++ {
			if ok, _ := results.Get(); ok {
				t.Error("Get on a closed, empty mailbox = ok")
			}
		}
		waitForReaders(rt, m, 0)
		if n := len(idleParkers(rt, m)); n != readers {
			t.Errorf("%d idle parkers after Close, want %d", n, readers)
		}
	})
}

// TestMailboxReleasesPoppedItem: a mailbox slot must not pin what was
// popped from it — a gcs delivery mailbox carries whole state snapshots.
func TestMailboxReleasesPoppedItem(t *testing.T) {
	onBothRuntimes(t, func(t *testing.T, rt Runtime) {
		type snapshot struct{ image [1 << 20]byte }
		m := NewMailbox[*snapshot](rt, "m")
		collected := make(chan struct{})
		func() {
			s := new(snapshot)
			runtime.SetFinalizer(s, func(*snapshot) { close(collected) })
			m.Put(s)
			if got, ok := m.Get(); !ok || got != s {
				t.Error("Get did not return the snapshot that was put")
			}
		}()
		for i := 0; i < 20; i++ {
			runtime.GC()
			select {
			case <-collected:
				return
			case <-time.After(10 * time.Millisecond):
			}
		}
		t.Error("a popped item is still reachable through the mailbox")
	})
}

// TestParkerByValue: the zero Parker works in place inside its owner's
// record on both runtimes, its two-part name is joined only by Name, and
// its channel is made by the first park that blocks — a park that finds a
// permit, and a parker never parked on, cost none.
func TestParkerByValue(t *testing.T) {
	onBothRuntimes(t, func(t *testing.T, rt Runtime) {
		var owner struct {
			id uint64
			p  Parker
		}
		p := &owner.p
		p.SetName("mat", "client/c1#7")
		if p.Name() != "mat/client/c1#7" || NewParker("worker").Name() != "worker" {
			t.Errorf("names %q, %q", p.Name(), NewParker("worker").Name())
		}
		rt.Lock()
		rt.Unpark(p)
		rt.Park(p) // consumes the permit
		rt.Unpark(p)
		if timedOut := rt.ParkTimeout(p, time.Second); timedOut || p.ch != nil {
			t.Errorf("parks on a permit: timedOut=%v, channel made=%v", timedOut, p.ch != nil)
		}
		rt.Unlock()
		woke := NewMailbox[bool](rt, "woke")
		rt.Go("parker", func() {
			rt.Lock()
			timedOut := rt.ParkTimeout(p, time.Hour)
			rt.Unlock()
			woke.Put(timedOut)
		})
		// Sleep, not spin: on the virtual kernel the parker runs only once
		// this goroutine parks.
		for parked := false; !parked; {
			rt.Lock()
			if parked = p.parked; parked {
				rt.Unpark(p)
			}
			rt.Unlock()
			rt.Sleep(time.Millisecond)
		}
		if timedOut, _ := woke.Get(); timedOut || p.ch == nil {
			t.Errorf("blocking park: timedOut=%v, channel made=%v", timedOut, p.ch != nil)
		}
	})
}
