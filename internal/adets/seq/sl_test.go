package seq

import (
	"testing"
	"time"

	"github.com/replobj/replobj/internal/adets"
	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

// White-box tests of the Eternal-style SL model: ordinary requests run
// strictly sequentially in delivery order, while callbacks — requests tagged
// with the logical thread currently blocked in a nested invocation — run
// immediately on an extra physical thread (paper Section 3.2).

func newBareSL() (*Scheduler, *vtime.VirtualRuntime) {
	rt := vtime.Virtual()
	s := NewSL()
	s.Start(adets.Env{
		RT:               rt,
		Self:             "g/0",
		Peers:            []wire.NodeID{"g/0"},
		SendPeer:         func(wire.NodeID, any) {},
		BroadcastOrdered: func(string, any) {},
	})
	return s, rt
}

func TestOrdinaryRequestsRunSequentially(t *testing.T) {
	s, rt := newBareSL()
	defer rt.Stop()
	var order []string
	vtime.Run(rt, "main", func() {
		running, max := 0, 0
		done := vtime.NewMailbox[struct{}](rt, "done")
		for i := 0; i < 5; i++ {
			logical := wire.LogicalID(rune('a' + i))
			s.Submit(adets.Request{
				Logical: logical,
				Exec: func(th *adets.Thread) {
					if err := s.Lock(th, "m"); err != nil {
						t.Errorf("Lock: %v", err)
					}
					rt.Lock()
					running++
					if running > max {
						max = running
					}
					order = append(order, string(logical))
					rt.Unlock()
					rt.Sleep(10) // overlap window (virtual time)
					rt.Lock()
					running--
					rt.Unlock()
					if err := s.Unlock(th, "m"); err != nil {
						t.Errorf("Unlock: %v", err)
					}
					done.Put(struct{}{})
				},
			})
		}
		for i := 0; i < 5; i++ {
			done.Get()
		}
		if max != 1 {
			t.Errorf("max concurrently running = %d, want 1 (SL is sequential for ordinary requests)", max)
		}
		s.Stop()
	})
	want := []string{"a", "b", "c", "d", "e"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Errorf("order[%d] = %q, want %q (delivery order)", i, order[i], want[i])
		}
	}
}

// TestCallbackRunsWhileOriginatorNested: the defining SL property — a
// callback for the logical thread blocked in a nested invocation executes on
// an extra physical thread instead of deadlocking behind the single worker.
func TestCallbackRunsWhileOriginatorNested(t *testing.T) {
	s, rt := newBareSL()
	defer rt.Stop()
	var order []string
	vtime.Run(rt, "main", func() {
		done := vtime.NewMailbox[struct{}](rt, "done")
		var nested *adets.Thread
		s.Submit(adets.Request{
			Logical: "origin",
			Exec: func(th *adets.Thread) {
				rt.Lock()
				order = append(order, "nested-start")
				nested = th
				rt.Unlock()
				s.BeginNested(th)
				rt.Lock()
				order = append(order, "nested-end")
				rt.Unlock()
				done.Put(struct{}{})
			},
		})
		rt.Sleep(1000) // origin is now parked in the nested invocation
		s.Submit(adets.Request{
			Logical:  "origin",
			Callback: true,
			Exec: func(th *adets.Thread) {
				if th.Logical != (wire.ThreadID{Logical: "origin"}) {
					t.Errorf("callback thread logical = %q, want origin", th.Logical)
				}
				rt.Lock()
				order = append(order, "callback")
				rt.Unlock()
				done.Put(struct{}{})
			},
		})
		done.Get() // the callback completes while origin is still blocked
		rt.Lock()
		got := append([]string(nil), order...)
		rt.Unlock()
		if len(got) != 2 || got[0] != "nested-start" || got[1] != "callback" {
			t.Fatalf("order while nested = %v, want [nested-start callback]", got)
		}
		s.EndNested(nested)
		done.Get()
		s.Stop()
	})
	if order[len(order)-1] != "nested-end" {
		t.Errorf("order = %v, want nested-end last", order)
	}
}

// TestCallbackOvertakesQueuedRequests: a callback does not queue behind
// ordinary requests — it is spawned directly, so it completes even while the
// single worker is occupied by a long-running request.
func TestCallbackOvertakesQueuedRequests(t *testing.T) {
	s, rt := newBareSL()
	defer rt.Stop()
	var order []string
	vtime.Run(rt, "main", func() {
		gate := vtime.NewMailbox[struct{}](rt, "gate")
		done := vtime.NewMailbox[struct{}](rt, "done")
		s.Submit(adets.Request{
			Logical: "long",
			Exec: func(*adets.Thread) {
				rt.Lock()
				order = append(order, "long")
				rt.Unlock()
				gate.Get() // hold the worker
				done.Put(struct{}{})
			},
		})
		s.Submit(adets.Request{
			Logical: "queued",
			Exec: func(*adets.Thread) {
				rt.Lock()
				order = append(order, "queued")
				rt.Unlock()
				done.Put(struct{}{})
			},
		})
		rt.Sleep(1000) // "long" occupies the worker; "queued" waits
		s.Submit(adets.Request{
			Logical:  "long",
			Callback: true,
			Exec: func(*adets.Thread) {
				rt.Lock()
				order = append(order, "callback")
				rt.Unlock()
				done.Put(struct{}{})
			},
		})
		done.Get() // callback finishes while the worker is still held
		gate.Put(struct{}{})
		done.Get()
		done.Get()
		s.Stop()
	})
	want := []string{"long", "callback", "queued"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Errorf("order[%d] = %q, want %q", i, order[i], want[i])
		}
	}
}

// TestWaitUnsupportedDeterministically: like Eternal, SL offers no condition
// variables — Wait/Notify must fail fast with ErrUnsupported for any timeout
// without arming timers or advancing virtual time.
func TestSLWaitUnsupportedDeterministically(t *testing.T) {
	s, rt := newBareSL()
	defer rt.Stop()
	vtime.Run(rt, "main", func() {
		done := vtime.NewMailbox[struct{}](rt, "done")
		s.Submit(adets.Request{
			Logical: "a",
			Exec: func(th *adets.Thread) {
				before := rt.Now()
				for _, d := range []time.Duration{0, time.Millisecond, time.Hour} {
					if fired, err := s.Wait(th, "m", "c", d); err != adets.ErrUnsupported || fired {
						t.Errorf("Wait(%v) = (%v, %v), want (false, ErrUnsupported)", d, fired, err)
					}
				}
				if err := s.Notify(th, "m", "c"); err != adets.ErrUnsupported {
					t.Errorf("Notify = %v, want ErrUnsupported", err)
				}
				if err := s.NotifyAll(th, "m", "c"); err != adets.ErrUnsupported {
					t.Errorf("NotifyAll = %v, want ErrUnsupported", err)
				}
				if rt.Now() != before {
					t.Errorf("unsupported Wait advanced virtual time by %v", rt.Now()-before)
				}
				done.Put(struct{}{})
			},
		})
		done.Get()
		s.Stop()
	})
}

func TestSLSubmitAfterStopIsNoop(t *testing.T) {
	s, rt := newBareSL()
	defer rt.Stop()
	vtime.Run(rt, "main", func() {
		done := vtime.NewMailbox[struct{}](rt, "done")
		s.Submit(adets.Request{Logical: "a", Exec: func(*adets.Thread) { done.Put(struct{}{}) }})
		done.Get()
		s.Stop()
		s.Submit(adets.Request{Logical: "late", Exec: func(*adets.Thread) {
			t.Error("request executed after Stop")
		}})
		s.Submit(adets.Request{Logical: "late-cb", Callback: true, Exec: func(*adets.Thread) {
			t.Error("callback executed after Stop")
		}})
		rt.Sleep(1000)
	})
}
