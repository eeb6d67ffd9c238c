package schedtest

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/replobj/replobj/internal/adets"
	"github.com/replobj/replobj/internal/adets/lsa"
	"github.com/replobj/replobj/internal/adets/mat"
	"github.com/replobj/replobj/internal/adets/pds"
	"github.com/replobj/replobj/internal/adets/sat"
	"github.com/replobj/replobj/internal/adets/seq"
	"github.com/replobj/replobj/internal/gcs"
	"github.com/replobj/replobj/internal/wire"
)

// --- SEQ ---

// TestSEQSerializesEverything: n requests of 10ms compute take n*10ms —
// the baseline the whole paper argues against.
func TestSEQSerializesEverything(t *testing.T) {
	c := New(1, func(int) adets.Scheduler { return seq.New() })
	c.Run(func() {
		const n = 5
		for i := 0; i < n; i++ {
			c.Submit(wire.LogicalID(fmt.Sprintf("cl%d", i)), false, func(ic *Ictx) {
				ic.Compute(10 * time.Millisecond)
			})
		}
		if _, err := c.Await(n, timeout); err != nil {
			t.Fatal(err)
		}
		if got := c.RT.Now(); got != n*10*time.Millisecond {
			t.Errorf("SEQ finished at %v, want %v", got, n*10*time.Millisecond)
		}
	})
}

// TestSEQNestedBlocksOtherRequests: while the single thread waits for a
// nested reply, nothing else runs (Section 2's performance argument).
func TestSEQNestedBlocksOtherRequests(t *testing.T) {
	c := New(1, func(int) adets.Scheduler { return seq.New() })
	c.Run(func() {
		c.Submit("nester", false, func(ic *Ictx) {
			ic.Nested(50 * time.Millisecond)
		})
		c.Submit("quick", false, func(ic *Ictx) {
			ic.Compute(time.Millisecond)
		})
		order, err := c.Await(2, timeout)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(order[0], []string{"nester", "quick"}) {
			t.Errorf("order = %v, want nester first (SEQ blocks on nested)", order[0])
		}
	})
}

// TestSEQWaitUnsupported: condition variables are rejected, forcing the
// polling fallback the paper's evaluation uses (Section 5.5).
func TestSEQWaitUnsupported(t *testing.T) {
	c := New(1, func(int) adets.Scheduler { return seq.New() })
	c.Run(func() {
		c.Submit("cl0", false, func(ic *Ictx) {
			_ = ic.Lock("m")
			if _, err := ic.Wait("m", "", 0); err != adets.ErrUnsupported {
				t.Errorf("Wait err = %v, want ErrUnsupported", err)
			}
			if err := ic.Notify("m", ""); err != adets.ErrUnsupported {
				t.Errorf("Notify err = %v, want ErrUnsupported", err)
			}
			_ = ic.Unlock("m")
		})
		if _, err := c.Await(1, timeout); err != nil {
			t.Fatal(err)
		}
	})
}

// --- SL (Eternal) ---

// TestSLCallbackRunsDuringNested: the callback (same logical thread)
// executes on an extra physical thread while the worker is blocked — the
// SL model's whole point.
func TestSLCallbackRunsDuringNested(t *testing.T) {
	c := New(1, func(int) adets.Scheduler { return seq.NewSL() })
	c.Run(func() {
		c.Submit("chain", false, func(ic *Ictx) {
			// Simulate A→B→A: after 5ms the "callback" arrives; the nested
			// reply comes later, after the callback completed.
			c.RT.After(5*time.Millisecond, "cb-inject", func() {
				c.Submit("chain", true, func(cb *Ictx) {
					cb.Trace("callback ran at %v", c.RT.Now())
					cb.Compute(2 * time.Millisecond)
				})
			})
			ic.Nested(20 * time.Millisecond)
			ic.Trace("nested returned at %v", c.RT.Now())
		})
		if _, err := c.Await(2, timeout); err != nil {
			t.Fatal(err)
		}
	})
	tr := c.Traces()[0]
	if len(tr) != 2 || tr[0] != "callback ran at 5ms" {
		t.Errorf("trace = %v, want callback first at 5ms", tr)
	}
}

// TestSLNonCallbackStillSequential: ordinary requests remain strictly
// sequential under SL.
func TestSLNonCallbackStillSequential(t *testing.T) {
	c := New(1, func(int) adets.Scheduler { return seq.NewSL() })
	c.Run(func() {
		for i := 0; i < 4; i++ {
			c.Submit(wire.LogicalID(fmt.Sprintf("cl%d", i)), false, func(ic *Ictx) {
				ic.Compute(10 * time.Millisecond)
			})
		}
		if _, err := c.Await(4, timeout); err != nil {
			t.Fatal(err)
		}
		if got := c.RT.Now(); got != 40*time.Millisecond {
			t.Errorf("finished at %v, want 40ms (sequential)", got)
		}
	})
}

// --- SAT ---

// TestSATUsesNestedIdleTime: a second request executes during the first
// one's nested invocation (Fig. 5(a)'s effect), but plain computations do
// not overlap.
func TestSATUsesNestedIdleTime(t *testing.T) {
	c := New(1, func(int) adets.Scheduler { return sat.New() })
	c.Run(func() {
		c.Submit("nester", false, func(ic *Ictx) {
			ic.Nested(30 * time.Millisecond)
		})
		c.Submit("worker1", false, func(ic *Ictx) {
			ic.Compute(10 * time.Millisecond)
		})
		c.Submit("worker2", false, func(ic *Ictx) {
			ic.Compute(10 * time.Millisecond)
		})
		if _, err := c.Await(3, timeout); err != nil {
			t.Fatal(err)
		}
		// worker1+worker2 run inside nester's 30ms window: total 30ms, not
		// 50ms — but the two computations themselves serialize (single
		// active thread).
		if got := c.RT.Now(); got != 30*time.Millisecond {
			t.Errorf("finished at %v, want 30ms", got)
		}
	})
}

// TestSATComputationsSerialize: SAT gains nothing for pure computation —
// the Fig. 4(a) behaviour that motivates MAT.
func TestSATComputationsSerialize(t *testing.T) {
	c := New(1, func(int) adets.Scheduler { return sat.New() })
	c.Run(func() {
		for i := 0; i < 4; i++ {
			c.Submit(wire.LogicalID(fmt.Sprintf("cl%d", i)), false, func(ic *Ictx) {
				ic.Compute(25 * time.Millisecond)
			})
		}
		if _, err := c.Await(4, timeout); err != nil {
			t.Fatal(err)
		}
		if got := c.RT.Now(); got != 100*time.Millisecond {
			t.Errorf("finished at %v, want 100ms (serialized)", got)
		}
	})
}

// --- MAT ---

// TestMATComputeThenLockParallelizes reproduces Fig. 4(b)'s shape: with
// compute-then-short-lock, n requests take ≈ one compute time.
func TestMATComputeThenLockParallelizes(t *testing.T) {
	c := New(1, func(int) adets.Scheduler { return mat.New() })
	c.Run(func() {
		const n = 8
		for i := 0; i < n; i++ {
			c.Submit(wire.LogicalID(fmt.Sprintf("cl%d", i)), false, func(ic *Ictx) {
				ic.Compute(100 * time.Millisecond)
				_ = ic.Lock("state")
				_ = ic.Unlock("state")
			})
		}
		if _, err := c.Await(n, timeout); err != nil {
			t.Fatal(err)
		}
		if got := c.RT.Now(); got != 100*time.Millisecond {
			t.Errorf("compute-lock-unlock finished at %v, want 100ms (parallel)", got)
		}
	})
}

// TestMATLockComputeUnlockSerializes reproduces Fig. 4(c)/(d): with the
// token held through the computation, MAT degenerates to SAT.
func TestMATLockComputeUnlockSerializes(t *testing.T) {
	for _, pattern := range []string{"lock-compute-unlock", "lock-unlock-compute"} {
		t.Run(pattern, func(t *testing.T) {
			c := New(1, func(int) adets.Scheduler { return mat.New() })
			c.Run(func() {
				const n = 4
				for i := 0; i < n; i++ {
					m := adets.MutexID(fmt.Sprintf("m%d", i)) // distinct mutexes!
					c.Submit(wire.LogicalID(fmt.Sprintf("cl%d", i)), false, func(ic *Ictx) {
						_ = ic.Lock(m)
						if pattern == "lock-compute-unlock" {
							ic.Compute(50 * time.Millisecond)
							_ = ic.Unlock(m)
						} else {
							_ = ic.Unlock(m)
							ic.Compute(50 * time.Millisecond)
						}
					})
				}
				if _, err := c.Await(n, timeout); err != nil {
					t.Fatal(err)
				}
				// Even with distinct mutexes, only the primary can lock and
				// it keeps the token through its computation: serialized.
				if got := c.RT.Now(); got != 200*time.Millisecond {
					t.Errorf("%s finished at %v, want 200ms (serialized)", pattern, got)
				}
			})
		})
	}
}

// TestMATYieldRestoresConcurrency: the paper's Section 5.3 remedy — a
// yield after the unlock lets successors lock while this thread computes.
func TestMATYieldRestoresConcurrency(t *testing.T) {
	c := New(1, func(int) adets.Scheduler { return mat.New() })
	c.Run(func() {
		const n = 4
		for i := 0; i < n; i++ {
			m := adets.MutexID(fmt.Sprintf("m%d", i))
			c.Submit(wire.LogicalID(fmt.Sprintf("cl%d", i)), false, func(ic *Ictx) {
				_ = ic.Lock(m)
				_ = ic.Unlock(m)
				ic.Yield()
				ic.Compute(50 * time.Millisecond)
			})
		}
		if _, err := c.Await(n, timeout); err != nil {
			t.Fatal(err)
		}
		if got := c.RT.Now(); got != 50*time.Millisecond {
			t.Errorf("yielded S-C finished at %v, want 50ms (parallel)", got)
		}
	})
}

// --- LSA ---

// TestLSAFollowerWaitsForTable: a follower cannot grant before the
// leader's mutex table arrives; with the table it grants in the leader's
// order.
func TestLSAFollowerWaitsForTable(t *testing.T) {
	c := New(2, func(int) adets.Scheduler {
		return lsa.New(lsa.WithPeriod(5 * time.Millisecond))
	})
	c.Run(func() {
		done := make([]time.Duration, 2)
		c.Submit("cl0", false, func(ic *Ictx) {
			_ = ic.Lock("m")
			_ = ic.Unlock("m")
			now := c.RT.Now()
			c.RT.Lock()
			done[ic.Replica()] = now
			c.RT.Unlock()
		})
		if _, err := c.Await(1, timeout); err != nil {
			t.Fatal(err)
		}
		if done[0] != 0 {
			t.Errorf("leader finished at %v, want 0 (no table wait)", done[0])
		}
		if done[1] < 5*time.Millisecond {
			t.Errorf("follower finished at %v, want >= one broadcast period", done[1])
		}
	})
}

// TestLSAFailover: the leader "crashes"; after the in-stream view change
// the new leader grants pending requests and the group makes progress.
func TestLSAFailover(t *testing.T) {
	c := New(3, func(int) adets.Scheduler { return lsa.New() })
	c.Run(func() {
		c.Submit("before", false, func(ic *Ictx) {
			_ = ic.Lock("m")
			ic.Trace("m:before")
			_ = ic.Unlock(adets.MutexID("m"))
		})
		if _, err := c.Await(1, timeout); err != nil {
			t.Fatal(err)
		}
		// Promote replica 1; from now on it grants (the schedtest cluster
		// does not really crash replica 0 — LSA only cares who grants).
		c.ViewChange(gcs.View{Epoch: 1, Members: []wire.NodeID{
			wire.ReplicaID("g", 1), wire.ReplicaID("g", 2),
		}})
		c.Submit("after", false, func(ic *Ictx) {
			_ = ic.Lock("m")
			ic.Trace("m:after")
			_ = ic.Unlock(adets.MutexID("m"))
		})
		if _, err := c.Await(1, timeout); err != nil {
			t.Fatal(err)
		}
	})
	for i, tr := range c.Traces() {
		if !reflect.DeepEqual(tr, []string{"m:before", "m:after"}) {
			t.Errorf("replica %d trace = %v", i, tr)
		}
	}
}

// --- PDS ---

// TestPDSGrantsInThreadIDOrder: requests suspended on the same mutex at a
// round start are granted lowest-thread-ID first.
func TestPDSGrantsInThreadIDOrder(t *testing.T) {
	c := New(1, func(int) adets.Scheduler {
		return pds.New(pds.Config{Variant: pds.PDS1, PoolSize: 4})
	})
	c.Run(func() {
		// All four requests compute 10ms, then contend on one mutex. They
		// are assigned to workers 0..3 in submit order; grants must follow
		// worker-ID order.
		for i := 0; i < 4; i++ {
			c.Submit(wire.LogicalID(fmt.Sprintf("cl%d", i)), false, func(ic *Ictx) {
				ic.Compute(10 * time.Millisecond)
				_ = ic.Lock("hot")
				ic.Trace("hot:%s", ic.Thread().Logical)
				ic.Compute(time.Millisecond)
				_ = ic.Unlock("hot")
			})
		}
		if _, err := c.Await(4, timeout); err != nil {
			t.Fatal(err)
		}
	})
	want := []string{"hot:cl0", "hot:cl1", "hot:cl2", "hot:cl3"}
	if got := c.Traces()[0]; !reflect.DeepEqual(got, want) {
		t.Errorf("grant order = %v, want %v", got, want)
	}
}

// TestPDSPoolGrowsOutOfWaitDeadlock: with a pool of 1, the only thread
// waits on a condition variable; the resize rule must add a thread so the
// notifying request can run (Section 4.2).
func TestPDSPoolGrowsOutOfWaitDeadlock(t *testing.T) {
	c := New(1, func(int) adets.Scheduler {
		return pds.New(pds.Config{Variant: pds.PDS1, PoolSize: 1, MinSpare: 1})
	})
	c.Run(func() {
		c.Submit("waiter", false, func(ic *Ictx) {
			_ = ic.Lock("m")
			if _, err := ic.Wait("m", "", 0); err != nil {
				t.Errorf("Wait: %v", err)
			}
			ic.Trace("woken")
			_ = ic.Unlock("m")
		})
		c.Submit("notifier", false, func(ic *Ictx) {
			ic.Compute(5 * time.Millisecond)
			_ = ic.Lock("m")
			_ = ic.Notify("m", "")
			_ = ic.Unlock("m")
		})
		if _, err := c.Await(2, timeout); err != nil {
			t.Fatal(err)
		}
	})
	if got := c.Traces()[0]; !reflect.DeepEqual(got, []string{"woken"}) {
		t.Errorf("trace = %v, want [woken]", got)
	}
}

// TestPDSNestedStrategies compares strategy A (blocks the round) with
// strategy B (other threads keep running): under B a concurrent request
// finishes during the nested invocation, under A it cannot.
func TestPDSNestedStrategies(t *testing.T) {
	run := func(ns pds.NestedStrategy) []string {
		c := New(1, func(int) adets.Scheduler {
			return pds.New(pds.Config{Variant: pds.PDS1, PoolSize: 2, Nested: ns})
		})
		var order []string
		c.Run(func() {
			c.Submit("nester", false, func(ic *Ictx) {
				_ = ic.Lock("a")
				_ = ic.Unlock("a")
				ic.Nested(50 * time.Millisecond)
			})
			c.Submit("other", false, func(ic *Ictx) {
				_ = ic.Lock("b")
				ic.Compute(5 * time.Millisecond)
				_ = ic.Unlock("b")
				// Needs another round to lock again: blocked under A while
				// the nested invocation is outstanding.
				_ = ic.Lock("b2")
				_ = ic.Unlock("b2")
			})
			got, err := c.Await(2, timeout)
			if err != nil {
				t.Fatal(err)
			}
			order = got[0]
		})
		return order
	}
	a := run(pds.NestedBlockRound)
	b := run(pds.NestedSuspend)
	if !reflect.DeepEqual(b, []string{"other", "nester"}) {
		t.Errorf("strategy B order = %v, want other first", b)
	}
	if !reflect.DeepEqual(a, []string{"nester", "other"}) {
		t.Errorf("strategy A order = %v, want nester first (round blocked)", a)
	}
}

// TestMATNoMoreLocksStepsAside: the lock-prediction extension — a declared
// computation-only thread leaves the token order so a later locker proceeds
// immediately; locking after the declaration is an error.
func TestMATNoMoreLocksStepsAside(t *testing.T) {
	c := New(1, func(int) adets.Scheduler { return mat.New() })
	c.Run(func() {
		c.Submit("computer", false, func(ic *Ictx) {
			ic.DeclareNoMoreLocks()
			ic.Compute(100 * time.Millisecond)
			if err := ic.Lock("m"); err != adets.ErrLockAfterDeclaration {
				t.Errorf("Lock after declaration = %v, want ErrLockAfterDeclaration", err)
			}
		})
		c.Submit("locker", false, func(ic *Ictx) {
			_ = ic.Lock("m")
			now := c.RT.Now()
			c.RT.Lock()
			if now >= 100*time.Millisecond {
				t.Errorf("locker acquired at %v; the declared computer should not delay it", now)
			}
			c.RT.Unlock()
			_ = ic.Unlock("m")
		})
		if _, err := c.Await(2, timeout); err != nil {
			t.Fatal(err)
		}
	})
}

// TestMATWithoutPredictionLockerWaits is the control: without the
// declaration, the locker waits for the whole leading computation.
func TestMATWithoutPredictionLockerWaits(t *testing.T) {
	c := New(1, func(int) adets.Scheduler { return mat.New() })
	c.Run(func() {
		c.Submit("computer", false, func(ic *Ictx) {
			ic.Compute(100 * time.Millisecond)
		})
		c.Submit("locker", false, func(ic *Ictx) {
			_ = ic.Lock("m")
			now := c.RT.Now()
			c.RT.Lock()
			if now < 100*time.Millisecond {
				t.Errorf("locker acquired at %v; plain MAT must wait for the token", now)
			}
			c.RT.Unlock()
			_ = ic.Unlock("m")
		})
		if _, err := c.Await(2, timeout); err != nil {
			t.Fatal(err)
		}
	})
}
