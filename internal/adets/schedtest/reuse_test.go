package schedtest

import (
	"testing"
	"time"

	"github.com/replobj/replobj/internal/adets"
	"github.com/replobj/replobj/internal/adets/cc"
	"github.com/replobj/replobj/internal/adets/mat"
	"github.com/replobj/replobj/internal/adets/sat"
)

// recycling lists the strategies that make one thread record per request
// and take it again from a free list once the thread has exited.
var recycling = []struct {
	name string
	mk   func(int) adets.Scheduler
}{
	{"ADETS-MAT", func(int) adets.Scheduler { return mat.New() }},
	{"ADETS-SAT", func(int) adets.Scheduler { return sat.New() }},
	{"ADETS-CC", func(int) adets.Scheduler { return cc.New() }},
}

// sequential runs each script as a request of its own, one after another
// on a one-replica cluster, each submitted once the previous one completed,
// and returns the thread each ran on.
func sequential(t *testing.T, mk func(int) adets.Scheduler, scripts ...Script) []*adets.Thread {
	t.Helper()
	c := New(1, mk)
	threads := make([]*adets.Thread, len(scripts))
	c.Run(func() {
		for i, script := range scripts {
			c.Submit("c", false, func(ic *Ictx) {
				threads[i] = ic.Thread()
				script(ic)
			})
			if _, err := c.Await(1, timeout); err != nil {
				t.Fatal(err)
			}
		}
	})
	return threads
}

// TestThreadRecordsReused: requests that run one after another run on one
// record, taken again from the free list — and each still runs as a thread
// of its own, numbered in delivery order.
func TestThreadRecordsReused(t *testing.T) {
	for _, k := range recycling {
		t.Run(k.name, func(t *testing.T) {
			var ids []uint64
			note := func(ic *Ictx) { ids = append(ids, ic.Thread().ID) }
			threads := sequential(t, k.mk, note, note, note, note)
			for i, th := range threads[1:] {
				if th != threads[0] {
					t.Errorf("request %d ran on record %p, request 0 on %p: not reused", i+1, th, threads[0])
				}
			}
			for i := 1; i < len(ids); i++ {
				if ids[i] <= ids[i-1] {
					t.Errorf("thread IDs %v: a reused record must take a new ID", ids)
				}
			}
		})
	}
}

// TestThreadRecordPermitDoesNotCarryOver: requests that leave both kinds of
// permit on their threads — an Unpark of the parker and a nested reply
// nobody waited for — exit, and the requests that take their records next
// find neither. The first park of one of them waits for its own wake-up:
// under SAT, its activation, while another request still holds it; under
// every kind, a park that only a timeout ends. Its nested call waits for
// its own reply.
func TestThreadRecordPermitDoesNotCarryOver(t *testing.T) {
	const busy, reply = 10 * time.Millisecond, 5 * time.Millisecond
	for _, k := range recycling {
		t.Run(k.name, func(t *testing.T) {
			var s adets.Scheduler
			c := New(1, func(i int) adets.Scheduler { s = k.mk(i); return s })
			var left, took []*adets.Thread
			var events []string
			var timedOut bool
			var nested time.Duration
			leave := func(ic *Ictx) {
				rt := ic.c.RT
				rt.Lock()
				left = append(left, ic.Thread())
				ic.Thread().Unpark(rt) // not parked: a permit
				rt.Unlock()
				s.EndNested(ic.Thread()) // not parked for a reply: a permit
			}
			// x keeps SAT's activation (and CC's lanes) for a while; b is
			// delivered meanwhile.
			x := func(ic *Ictx) {
				took = append(took, ic.Thread())
				ic.Compute(busy)
				events = append(events, "x ends")
			}
			b := func(ic *Ictx) {
				rt := ic.c.RT
				took = append(took, ic.Thread())
				events = append(events, "b starts")
				rt.Lock()
				timedOut = ic.Thread().ParkTimeout(rt, time.Millisecond)
				rt.Unlock()
				start := rt.Now()
				ic.Nested(reply)
				nested = rt.Now() - start
			}
			c.Run(func() {
				c.Submit("a1", false, leave)
				c.Submit("a2", false, leave)
				if _, err := c.Await(2, timeout); err != nil {
					t.Fatal(err)
				}
				c.Submit("x", false, x)
				c.Submit("b", false, b)
				if _, err := c.Await(2, timeout); err != nil {
					t.Fatal(err)
				}
			})
			if len(took) != 2 || len(left) != 2 || !(took[0] == left[0] && took[1] == left[1] || took[0] == left[1] && took[1] == left[0]) {
				t.Fatal("x and b did not run on the two records the permits were left on")
			}
			if k.name != "ADETS-MAT" && (len(events) != 2 || events[0] != "x ends") {
				t.Errorf("events %q: b started while x held the activation — a permit carried over", events)
			}
			if !timedOut {
				t.Error("b's park returned at once: a permit carried over")
			}
			if nested < reply {
				t.Errorf("b's nested call returned after %v, its reply came after %v: the nested permit carried over", nested, reply)
			}
		})
	}
}

// TestThreadRecordRetiredRefusesGrant: a retired record is no thread.
// Granting it a mutex, or making it runnable, panics instead of waking
// whichever request takes the record next.
func TestThreadRecordRetiredRefusesGrant(t *testing.T) {
	for _, k := range recycling {
		t.Run(k.name, func(t *testing.T) {
			var s adets.Scheduler
			mk := func(i int) adets.Scheduler { s = k.mk(i); return s }
			c := New(1, mk)
			var retired *adets.Thread
			var grant, runnable any
			c.Run(func() {
				c.Submit("c", false, func(ic *Ictx) { retired = ic.Thread() })
				if _, err := c.Await(1, timeout); err != nil {
					t.Fatal(err)
				}
				m := s.(interface {
					adets.Strategy
					Mutex(adets.MutexID) *adets.Mutex
					Grant(*adets.Mutex, *adets.Thread)
				})
				try := func(f func()) (v any) {
					c.RT.Lock()
					defer c.RT.Unlock()
					defer func() { v = recover() }()
					f()
					return nil
				}
				grant = try(func() { m.Grant(m.Mutex("m"), retired) })
				runnable = try(func() { m.Runnable(retired) })
			})
			if grant == nil {
				t.Error("Grant to a retired record did not panic")
			}
			if runnable == nil {
				t.Error("Runnable on a retired record did not panic")
			}
		})
	}
}
