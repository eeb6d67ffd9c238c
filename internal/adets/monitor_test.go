package adets

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"github.com/replobj/replobj/internal/gcs"
	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

// bare is the least strategy there is: any thread may lock, a runnable thread
// runs at once, a parked thread is stable. It records what the Monitor tells
// it, so the cases below can state the monitor's contract hook by hook.
type bare struct {
	Monitor
	rt     *vtime.VirtualRuntime
	hooks  []string // "blocked a", "runnable a", in call order
	events []string // what the scripts observed, in virtual-time order
	sent   []string // ids handed to BroadcastOrdered
	hold   bool     // keep timeouts out of the order (a case delivers by hand)
}

func (b *bare) Runnable(t *Thread) {
	b.hooks = append(b.hooks, "runnable "+string(t.Logical))
	t.Unpark(b.rt)
}
func (b *bare) Blocked(t *Thread)     { b.hooks = append(b.hooks, "blocked "+string(t.Logical)) }
func (b *bare) Stable(t *Thread) bool { return t.Parked() != NotParked }

func (b *bare) Submit(req Request) {
	b.rt.Lock()
	j := &bareJob{b: b, exec: req.Exec}
	b.Enter(b.Registry.Init(&j.Thread, "bare", req.Logical, nil))
	b.Registry.Start(j)
	b.rt.Unlock()
}

// bareJob is bare's thread record.
type bareJob struct {
	Thread
	b    *bare
	exec func(*Thread)
}

func (j *bareJob) Run() {
	j.b.Execute(&j.Thread, j.exec)
	j.b.Exit(&j.Thread)
}

func (b *bare) Name() string               { return "bare" }
func (b *bare) Capabilities() Capabilities { return Capabilities{} }
func (b *bare) Start(Env)                  {}
func (b *bare) Yield(*Thread)              {}
func (b *bare) ViewChanged(gcs.View)       {}

func newBare() *bare {
	b := &bare{rt: vtime.Virtual()}
	b.Init(Env{
		RT:       b.rt,
		Self:     "r/0",
		Peers:    []wire.NodeID{"r/0"},
		SendPeer: func(wire.NodeID, any) {},
		BroadcastOrdered: func(id string, payload any) {
			b.rt.Lock()
			b.sent = append(b.sent, id)
			hold := b.hold
			b.rt.Unlock()
			if !hold {
				b.HandleOrdered(id, payload)
			}
		},
	}, b)
	return b
}

// at runs body as a request of the logical thread after d of virtual time.
func (b *bare) at(d time.Duration, logical wire.LogicalID, body func(t *Thread)) {
	b.rt.Go("at/"+string(logical), func() {
		b.rt.Sleep(d)
		b.Submit(Request{Logical: logical, Exec: body})
	})
}

func (b *bare) event(format string, args ...any) {
	b.rt.Lock()
	b.events = append(b.events, fmt.Sprintf(format, args...))
	b.rt.Unlock()
}

func (b *bare) owner(m MutexID) wire.LogicalID {
	b.rt.Lock()
	defer b.rt.Unlock()
	return b.Mutex(m).Owner
}

// waiter is the script "Lock m; Wait(m, c, d); Unlock m", reporting how the
// wait ended.
func (b *bare) waiter(m MutexID, c CondID, d time.Duration) func(*Thread) {
	return func(t *Thread) {
		if err := b.Lock(t, m); err != nil {
			b.event("%s Lock: %v", t.Logical, err)
			return
		}
		timedOut, err := b.Wait(t, m, c, d)
		b.event("%s woke timedOut=%v err=%v owner=%s", t.Logical, timedOut, err, b.owner(m))
		_ = b.Unlock(t, m)
	}
}

// notifier is the script "Lock m; Notify or NotifyAll (m, c); Unlock m".
func (b *bare) notifier(m MutexID, c CondID, all bool) func(*Thread) {
	return func(t *Thread) {
		_ = b.Lock(t, m)
		b.event("%s holds %s", t.Logical, m)
		if all {
			_ = b.NotifyAll(t, m, c)
		} else {
			_ = b.Notify(t, m, c)
		}
		_ = b.Unlock(t, m)
	}
}

const ms = time.Millisecond

func TestMonitor(t *testing.T) {
	cases := []struct {
		name   string
		script func(b *bare)
		events []string // nil: not compared
		hooks  []string // nil: not compared
	}{
		{
			name: "pre: m held, a b c call Lock in that order; post: each parks Blocked once and is granted, Runnable, in arrival order",
			script: func(b *bare) {
				b.at(0, "h", func(t *Thread) {
					_ = b.Lock(t, "m") // free: granted at once, no hook
					b.rt.Sleep(10 * ms)
					_ = b.Unlock(t, "m")
				})
				for i, l := range []wire.LogicalID{"a", "b", "c"} {
					b.at(time.Duration(i+1)*ms, l, func(t *Thread) {
						_ = b.Lock(t, "m")
						b.event("%s got m", t.Logical)
						_ = b.Unlock(t, "m")
					})
				}
				b.rt.Sleep(50 * ms)
			},
			events: []string{"a got m", "b got m", "c got m"},
			hooks:  []string{"blocked a", "blocked b", "blocked c", "runnable a", "runnable b", "runnable c"},
		},
		{
			name: "pre: w owns m and calls Wait; post: m is free for n while w waits, and w owns m again when Wait returns",
			script: func(b *bare) {
				b.at(0, "w", b.waiter("m", "", 0))
				b.at(1*ms, "n", b.notifier("m", "", false))
				b.rt.Sleep(50 * ms)
			},
			events: []string{"n holds m", "w woke timedOut=false err=<nil> owner=w"},
			hooks:  []string{"blocked w", "runnable w"},
		},
		{
			name: "pre: a b c d wait on (m, c) in that order; post: Notify wakes a alone, NotifyAll then b c d in queue order, none as timed out",
			script: func(b *bare) {
				for i, l := range []wire.LogicalID{"a", "b", "c", "d"} {
					b.at(time.Duration(i)*ms, l, b.waiter("m", "c", 0))
				}
				b.at(10*ms, "n1", b.notifier("m", "c", false))
				b.at(20*ms, "n2", b.notifier("m", "c", true))
				b.rt.Sleep(50 * ms)
			},
			events: []string{
				"n1 holds m", "a woke timedOut=false err=<nil> owner=a",
				"n2 holds m", "b woke timedOut=false err=<nil> owner=b",
				"c woke timedOut=false err=<nil> owner=c", "d woke timedOut=false err=<nil> owner=d",
			},
		},
		{
			name: "pre: a waits bounded and b unbounded on (m, \"\"), a's bound expires; post: a wakes as timed out and off the queue — the later Notify wakes b",
			script: func(b *bare) {
				b.at(0, "a", b.waiter("m", "", 5*ms))
				b.at(1*ms, "b", b.waiter("m", "", 0))
				b.at(20*ms, "n", b.notifier("m", "", false))
				b.rt.Sleep(50 * ms)
			},
			events: []string{
				"a woke timedOut=true err=<nil> owner=a",
				"n holds m", "b woke timedOut=false err=<nil> owner=b",
			},
		},
		{
			name: "pre: a's wait 1 was notified and a is in wait 2, unbounded; post: a timeout naming (a, 1) wakes nobody — wait 2 ends by its notification",
			script: func(b *bare) {
				b.hold = true
				b.at(0, "a", func(t *Thread) {
					_ = b.Lock(t, "m")
					timedOut, _ := b.Wait(t, "m", "", 30*ms)
					b.event("a wait 1 timedOut=%v", timedOut)
					timedOut, _ = b.Wait(t, "m", "", 0)
					b.event("a wait 2 timedOut=%v", timedOut)
					_ = b.Unlock(t, "m")
				})
				b.at(1*ms, "n1", b.notifier("m", "", false))
				b.rt.Sleep(5 * ms)
				stale := TimeoutMsg{Target: "a", Mutex: "m", WaitSeq: 1}
				b.HandleOrdered(TimeoutID(stale), stale)
				b.rt.Sleep(5 * ms)
				b.event("stale timeout resolved")
				b.at(0, "n2", b.notifier("m", "", false))
				b.rt.Sleep(50 * ms)
			},
			events: []string{
				"n1 holds m", "a wait 1 timedOut=false",
				"stale timeout resolved", "n2 holds m", "a wait 2 timedOut=false",
			},
		},
		{
			name: "pre: threads parked in Lock, Wait and BeginNested; post: Stop wakes each, Lock and Wait fail with ErrStopped, and so does every later operation",
			script: func(b *bare) {
				b.at(0, "h", func(t *Thread) {
					_ = b.Lock(t, "m")
					b.BeginNested(t)
					b.event("h back err=%v", b.Unlock(t, "m"))
				})
				b.at(1*ms, "l", func(t *Thread) { b.event("l Lock err=%v", b.Lock(t, "m")) })
				b.at(2*ms, "w", b.waiter("m2", "", 0))
				b.rt.Sleep(10 * ms)
				b.Stop()
				b.rt.Sleep(1 * ms)
			},
			events: []string{
				"h back err=adets: scheduler stopped",
				"l Lock err=adets: scheduler stopped",
				"w woke timedOut=false err=adets: scheduler stopped owner=",
			},
		},
		{
			name: "pre: Quiesce while a runs; post: report fires once, drained=false, when a parks — not before, not again when a resumes and exits; a second Quiesce on the empty monitor reports drained=true at once",
			script: func(b *bare) {
				var a *Thread
				b.at(0, "a", func(t *Thread) {
					a = t
					b.rt.Sleep(5 * ms)
					b.BeginNested(t)
				})
				b.rt.Sleep(1 * ms)
				report := func(drained bool) { b.events = append(b.events, fmt.Sprintf("report drained=%v", drained)) }
				b.Quiesce(report)
				b.event("quiesce registered")
				b.rt.Sleep(9 * ms)
				b.event("a parked")
				b.EndNested(a)
				b.rt.Sleep(1 * ms)
				b.event("a gone")
				b.Quiesce(report)
			},
			events: []string{"quiesce registered", "report drained=false", "a parked", "a gone", "report drained=true"},
		},
		{
			name: "pre: EndNested before BeginNested, then BeginNested before EndNested; post: the first pair never parks, the second parks Blocked and resumes Runnable — once each",
			script: func(b *bare) {
				var a *Thread
				b.at(0, "a", func(t *Thread) {
					a = t
					b.rt.Sleep(5 * ms)
					b.BeginNested(t)
					b.event("a resumed 1")
					b.BeginNested(t)
					b.event("a resumed 2")
				})
				b.rt.Sleep(1 * ms)
				b.EndNested(a)
				b.rt.Sleep(9 * ms)
				b.event("second reply")
				b.EndNested(a)
				b.rt.Sleep(1 * ms)
			},
			events: []string{"a resumed 1", "second reply", "a resumed 2"},
			hooks:  []string{"blocked a", "runnable a"},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := newBare()
			defer b.rt.Stop()
			vtime.Run(b.rt, "main", func() { c.script(b) })
			b.rt.Lock()
			defer b.rt.Unlock()
			// Scripts woken by one Stop report in no particular order.
			if b.Stopped() {
				slices.Sort(b.events)
			}
			if c.events != nil && !slices.Equal(b.events, c.events) {
				t.Errorf("events = %q\n       want %q", b.events, c.events)
			}
			if c.hooks != nil && !slices.Equal(b.hooks, c.hooks) {
				t.Errorf("hooks = %q\n      want %q", b.hooks, c.hooks)
			}
		})
	}
}

// --- the timeout transport ---

func TestTimeoutsArmFiresBroadcast(t *testing.T) {
	b := newBare()
	defer b.rt.Stop()
	vtime.Run(b.rt, "main", func() {
		b.at(0, "cl1", b.waiter("m", "", 10*ms))
		b.rt.Sleep(20 * ms)
	})
	if want := []string{TimeoutID(TimeoutMsg{Target: "cl1", WaitSeq: 1})}; !slices.Equal(b.sent, want) {
		t.Errorf("broadcasts = %v, want %v", b.sent, want)
	}
	if want := []string{"cl1 woke timedOut=true err=<nil> owner=cl1"}; !slices.Equal(b.events, want) {
		t.Errorf("events = %q, want %q", b.events, want)
	}
}

func TestTimeoutsDisarmCancels(t *testing.T) {
	b := newBare()
	defer b.rt.Stop()
	vtime.Run(b.rt, "main", func() {
		b.at(0, "cl1", b.waiter("m", "", 10*ms))
		b.at(1*ms, "n", b.notifier("m", "", false))
		b.rt.Sleep(30 * ms)
	})
	if len(b.sent) != 0 {
		t.Errorf("disarmed timer still broadcast: %v", b.sent)
	}
}

// TestTimeoutsPerLogicalSequencing: interleaved waits by two logical threads
// keep independent counters — the sequence is per logical thread, never
// global (a global counter would diverge across replicas).
func TestTimeoutsPerLogicalSequencing(t *testing.T) {
	b := newBare()
	defer b.rt.Stop()
	vtime.Run(b.rt, "main", func() {
		b.at(0, "a", func(t *Thread) {
			_ = b.Lock(t, "ma")
			_, _ = b.Wait(t, "ma", "", 1*ms)
			b.rt.Sleep(5 * ms)
			_, _ = b.Wait(t, "ma", "", 1*ms)
			_ = b.Unlock(t, "ma")
		})
		b.at(3*ms, "b", b.waiter("mb", "", 1*ms))
		b.rt.Sleep(30 * ms)
	})
	want := []string{"adets-timeout/a/1", "adets-timeout/b/1", "adets-timeout/a/2"}
	if !slices.Equal(b.sent, want) {
		t.Errorf("broadcasts = %v, want %v", b.sent, want)
	}
}

func TestTimeoutIDUniquePerWait(t *testing.T) {
	a := TimeoutID(TimeoutMsg{Target: "x", WaitSeq: 1})
	b := TimeoutID(TimeoutMsg{Target: "x", WaitSeq: 2})
	c := TimeoutID(TimeoutMsg{Target: "y", WaitSeq: 1})
	if a == b || a == c || b == c {
		t.Errorf("timeout ids collide: %q %q %q", a, b, c)
	}
}
