package schedtest

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/replobj/replobj/internal/adets"
	"github.com/replobj/replobj/internal/adets/mat"
	"github.com/replobj/replobj/internal/adets/pds"
	"github.com/replobj/replobj/internal/adets/sat"
	"github.com/replobj/replobj/internal/wire"
)

// The timeout-vs-notify race (paper Section 4.1, Fig. 1): a thread waits
// with a time bound while another notifies at *about* the same moment. The
// outcome — woken by the notification or by the timeout — may legitimately
// differ from run to run, but it must be identical on every replica, and
// the condition-variable state must stay consistent (a timed-out waiter
// consumes no notification; the notification then wakes nobody or the next
// waiter).
func TestTimeoutNotifyRaceAgreesAcrossReplicas(t *testing.T) {
	for name, factory := range factories {
		if !caps(name).TimedWait {
			continue
		}
		name, factory := name, factory
		t.Run(name, func(t *testing.T) {
			// Sweep the notify instant across the timeout instant.
			for _, notifyAt := range []time.Duration{
				6 * time.Millisecond,  // clearly before the 10ms timeout
				10 * time.Millisecond, // exactly at the timeout
				14 * time.Millisecond, // clearly after
			} {
				notifyAt := notifyAt
				c := New(3, factory)
				c.Run(func() {
					c.Submit("waiter", false, func(ic *Ictx) {
						_ = ic.Lock("m")
						timedOut, err := ic.Wait("m", "", 10*time.Millisecond)
						if err != nil {
							t.Errorf("Wait: %v", err)
						}
						ic.Trace("waiter timedOut=%v", timedOut)
						_ = ic.Unlock("m")
					})
					c.Submit("notifier", false, func(ic *Ictx) {
						ic.Compute(notifyAt)
						_ = ic.Lock("m")
						_ = ic.Notify("m", "")
						_ = ic.Unlock("m")
					})
					if _, err := c.Await(2, timeout); err != nil {
						t.Fatal(err)
					}
				})
				traces := c.Traces()
				for i := 1; i < 3; i++ {
					if len(traces[i]) != 1 || len(traces[0]) != 1 || traces[i][0] != traces[0][0] {
						t.Errorf("notify@%v: replicas disagree: r0=%v r%d=%v",
							notifyAt, traces[0], i, traces[i])
					}
				}
				// Only the early-notify case has a forced outcome. With a
				// late notify the *timeout request* must itself be
				// scheduled (it locks the mutex like any request, paper
				// Section 4.2) — and the notifier, computing as the active
				// /token-holding thread, may legitimately delay it past its
				// own notify. Replicas agreeing on whichever way it falls
				// is the property under test.
				if notifyAt == 6*time.Millisecond && traces[0][0] != "waiter timedOut=false" {
					t.Errorf("notify@6ms: %v, want notified", traces[0])
				}
			}
		})
	}
}

// TestTimedOutWaiterDoesNotConsumeNotification: after a timeout, a later
// notify must wake the *other* waiter, identically everywhere.
func TestTimedOutWaiterDoesNotConsumeNotification(t *testing.T) {
	for name, factory := range factories {
		if !caps(name).TimedWait {
			continue
		}
		name, factory := name, factory
		t.Run(name, func(t *testing.T) {
			c := New(3, factory)
			c.Run(func() {
				c.Submit("bounded", false, func(ic *Ictx) {
					_ = ic.Lock("m")
					timedOut, err := ic.Wait("m", "", 5*time.Millisecond)
					if err != nil {
						t.Errorf("bounded Wait: %v", err)
					}
					ic.Trace("bounded timedOut=%v", timedOut)
					_ = ic.Unlock("m")
				})
				c.Submit("unbounded", false, func(ic *Ictx) {
					ic.Compute(time.Millisecond) // enqueue after "bounded"
					_ = ic.Lock("m")
					timedOut, err := ic.Wait("m", "", 0)
					if err != nil {
						t.Errorf("unbounded Wait: %v", err)
					}
					ic.Trace("unbounded timedOut=%v", timedOut)
					_ = ic.Unlock("m")
				})
				// Submit the notifier only after the bounded wait's timeout
				// request has long been scheduled (an in-handler Compute
				// would hold the activation/token and starve the timeout
				// handler — see TestTimeoutNotifyRaceAgreesAcrossReplicas).
				c.RT.Sleep(30 * time.Millisecond)
				c.Submit("notifier", false, func(ic *Ictx) {
					_ = ic.Lock("m")
					_ = ic.Notify("m", "")
					_ = ic.Unlock("m")
				})
				if _, err := c.Await(3, timeout); err != nil {
					t.Fatal(err)
				}
			})
			for i, tr := range c.Traces() {
				if len(tr) != 2 {
					t.Fatalf("replica %d trace = %v", i, tr)
				}
				has := map[string]bool{}
				for _, e := range tr {
					has[e] = true
				}
				if !has["bounded timedOut=true"] || !has["unbounded timedOut=false"] {
					t.Errorf("replica %d: %v, want bounded to time out and unbounded to be notified", i, tr)
				}
			}
		})
	}
}

// TestRepeatedTimedWaitsSequence: successive bounded waits by one logical
// thread must each resolve independently (WaitSeq bookkeeping).
func TestRepeatedTimedWaitsSequence(t *testing.T) {
	for name, factory := range factories {
		if !caps(name).TimedWait {
			continue
		}
		name, factory := name, factory
		t.Run(name, func(t *testing.T) {
			c := New(3, factory)
			c.Run(func() {
				c.Submit("repeater", false, func(ic *Ictx) {
					_ = ic.Lock("m")
					for i := 0; i < 3; i++ {
						timedOut, err := ic.Wait("m", "", 5*time.Millisecond)
						if err != nil {
							t.Errorf("wait %d: %v", i, err)
						}
						ic.Trace("wait%d timedOut=%v", i, timedOut)
					}
					_ = ic.Unlock("m")
				})
				if _, err := c.Await(1, timeout); err != nil {
					t.Fatal(err)
				}
			})
			want := []string{"wait0 timedOut=true", "wait1 timedOut=true", "wait2 timedOut=true"}
			for i, tr := range c.Traces() {
				if fmt.Sprint(tr) != fmt.Sprint(want) {
					t.Errorf("replica %d: %v, want %v", i, tr, want)
				}
			}
		})
	}
}

// orderedTimeoutKinds are the strategies that resolve a wait timeout through
// the total order (LSA's TO-thread is local and broadcasts nothing), PDS with
// a pool of one so that one worker serves successive requests.
var orderedTimeoutKinds = map[string]func(int) adets.Scheduler{
	"ADETS-SAT": func(int) adets.Scheduler { return sat.New() },
	"ADETS-MAT": func(int) adets.Scheduler { return mat.New() },
	"ADETS-PDS": func(int) adets.Scheduler {
		return pds.New(pds.Config{Variant: pds.PDS1, PoolSize: 1})
	},
	"ADETS-PDS-2": func(int) adets.Scheduler {
		return pds.New(pds.Config{Variant: pds.PDS2, PoolSize: 1})
	},
}

// timeoutIDs returns the timeout broadcast ids that entered c's order.
func timeoutIDs(c *Cluster) []string {
	c.RT.Lock()
	defer c.RT.Unlock()
	var ids []string
	for id := range c.seenIDs {
		if strings.HasPrefix(id, "adets-timeout/") {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// TestTimeoutIDIsAFunctionOfTheLogicalThread: the id a timeout is ordered
// under counts the waits of the waiting *logical* thread. Whatever else
// serves the request — a pool worker with a history of its own — must not
// show in it: a replica whose workers are fresh (after a snapshot install)
// would order the same timeout under a second id.
func TestTimeoutIDIsAFunctionOfTheLogicalThread(t *testing.T) {
	for name, factory := range orderedTimeoutKinds {
		t.Run(name, func(t *testing.T) {
			c := New(1, factory)
			c.Run(func() {
				for _, l := range []wire.LogicalID{"r1", "r2"} {
					c.Submit(l, false, func(ic *Ictx) {
						_ = ic.Lock("m")
						if timedOut, err := ic.Wait("m", "", time.Millisecond); !timedOut || err != nil {
							t.Errorf("%s: Wait = %v, %v; want a timeout", l, timedOut, err)
						}
						_ = ic.Unlock("m")
					})
					if _, err := c.Await(1, timeout); err != nil {
						t.Fatal(err)
					}
				}
			})
			want := []string{"adets-timeout/r1/1", "adets-timeout/r2/1"}
			if got := timeoutIDs(c); !slices.Equal(got, want) {
				t.Errorf("timeout ids = %v, want %v", got, want)
			}
		})
	}
}

// TestNotifiedWaitBroadcastsNoTimeout: a bounded wait that is notified long
// before its bound disarms its timer — nothing enters the order for it.
func TestNotifiedWaitBroadcastsNoTimeout(t *testing.T) {
	for name, factory := range orderedTimeoutKinds {
		t.Run(name, func(t *testing.T) {
			c := New(1, factory)
			c.Run(func() {
				c.Submit("waiter", false, func(ic *Ictx) {
					_ = ic.Lock("m")
					if timedOut, err := ic.Wait("m", "", 10*time.Millisecond); timedOut || err != nil {
						t.Errorf("Wait = %v, %v; want a notification", timedOut, err)
					}
					_ = ic.Unlock("m")
				})
				c.RT.Sleep(time.Millisecond)
				c.Submit("notifier", false, func(ic *Ictx) {
					_ = ic.Lock("m")
					_ = ic.Notify("m", "")
					_ = ic.Unlock("m")
				})
				if _, err := c.Await(2, timeout); err != nil {
					t.Fatal(err)
				}
				c.RT.Sleep(50 * time.Millisecond)
			})
			if got := timeoutIDs(c); len(got) != 0 {
				t.Errorf("timeout ids = %v, want none", got)
			}
		})
	}
}
