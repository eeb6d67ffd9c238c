//go:build !race

package replobj_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	replobj "github.com/replobj/replobj"
	"github.com/replobj/replobj/internal/vtime"
)

// TestInvokeAllocationBudget pins what one invocation allocates across the
// whole stack — client stub, group communication on three replicas,
// dispatch, SEQ scheduler, mailboxes — over the zero-latency in-process
// network on the real clock (no codec and no sockets: the wire package
// holds its own budgets). The bound is the figure measured when each
// replica began to reuse its dispatch records (46) plus 10 %; the same run
// read 52 while every request allocated its record and the record's bound
// Exec func on each replica, 55 while the "order" stream formatted a
// decimal per delivery, 68 while the client's request travelled to every
// member and 151 before the per-request allocation diet. Naming a client's
// call by number did not move it: nothing is decoded in process, and the
// id table that numbering replaced did not allocate once full — the three
// id strings it saves a call are decoded ones (BenchmarkInvokeTCP, 40 →
// 37), and neither did sending every top-level payload as a pointer: a new
// *T costs what boxing the T did, and nothing in process is decoded into a
// lent cell. Since Send borrows its payload it reads 47: the senders' cells
// are reused, but the in-process network keeps a copy of every payload it
// delivers — the sequencer's Ordered once per follower. It read 46 until
// the client began to hand the caller a copy of the result it returns
// (47): the in-process network's copy of the Submit now boxes the nested
// Request the client no longer boxes, and a reply's result is copied into
// a slot buffer the client reuses. It reads 49 since a nested payload is a
// *T everywhere: the in-process network's copy of the sequencer's Ordered
// copies the nested *Request once per follower, where the Request value
// it held before was shared — wire.Own cannot tell the log's Request,
// which nobody writes, from the client's cell, which the client writes
// again. Much of what is left is that network's timer per message, which
// TCP deployments do not pay. The race detector allocates on its own,
// hence the build tag.
func TestInvokeAllocationBudget(t *testing.T) {
	const budget = 50
	rt := vtime.Real()
	defer rt.Stop()
	c := replobj.NewCluster(rt, replobj.WithLatency(0))
	defer c.Close()
	counterGroup(t, c, "cnt", 3, replobj.WithScheduler(replobj.SEQ))
	// Policy All: no replica is still working on one invocation while the
	// next is measured, so the figure repeats from run to run.
	cl := c.NewClient("c0", replobj.WithInvocationTimeout(10*time.Second),
		replobj.WithReplyPolicy(replobj.All))
	args := []byte{1}
	var err error
	var allocs float64
	replobj.Run(rt, func() {
		invoke := func() {
			if _, ierr := cl.Invoke("cnt", "add", args); ierr != nil && err == nil {
				err = ierr
			}
		}
		for i := 0; i < 200; i++ { // rings, maps and free lists warm
			invoke()
		}
		allocs = testing.AllocsPerRun(2000, invoke)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("one Invoke, 3 SEQ replicas, zero-latency inproc: %v allocs (budget %d)", allocs, budget)
	if allocs > budget {
		t.Errorf("one Invoke allocates %v times, budget %d", allocs, budget)
	}
}

// TestInvokeMessageBudget pins what one invocation sends, beside what it
// allocates: one Submit to the sequencer, an Ordered to each follower and
// three replies — the client's request travels once (8 before it did: the
// test fails there), whatever reply policy the client waits by.
func TestInvokeMessageBudget(t *testing.T) {
	const calls = 500
	for _, tc := range []struct {
		name   string
		policy replobj.ReplyPolicy
		want   float64
	}{
		{"plain", replobj.All, 6},
		{"Majority", replobj.Majority, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The wall clock, where frames of consecutive calls really
			// race. Policy All: every reply of one invocation is sent before
			// the next begins, so no frame of one call is in flight beside
			// the next call's. Under Majority a call overlaps the previous
			// call's last reply, and the zero-latency network on the wall
			// clock may reorder two frames of one sender, so the NACKs that
			// draws would be counted too: that row runs on virtual time.
			var rt vtime.Runtime = vtime.Real()
			if tc.policy != replobj.All {
				rt = vtime.Virtual()
			}
			defer rt.Stop()
			reg := replobj.NewMetricsRegistry()
			c := replobj.NewCluster(rt, replobj.WithLatency(0), replobj.WithMetrics(reg))
			defer c.Close()
			counterGroup(t, c, "cnt", 3, replobj.WithScheduler(replobj.SEQ))
			cl := c.NewClient("c0", replobj.WithInvocationTimeout(10*time.Second),
				replobj.WithReplyPolicy(tc.policy))
			sent := reg.Counter(`replobj_transport_msgs_sent_total{net="inproc"}`)
			// Under Majority a call returns before its last reply is sent:
			// count once the group has gone quiet.
			settled := func() uint64 {
				for {
					n := sent.Value()
					rt.Sleep(20 * time.Millisecond)
					if sent.Value() == n {
						return n
					}
				}
			}
			var err error
			var before, after uint64
			replobj.Run(rt, func() {
				invoke := func(n int) {
					for i := 0; i < n && err == nil; i++ {
						_, err = cl.Invoke("cnt", "add", []byte{1})
					}
				}
				invoke(200) // the first request of a client goes to every member
				before = settled()
				invoke(calls)
				after = settled()
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := float64(after-before) / calls; got != tc.want {
				t.Errorf("%v messages per invocation, want exactly %v", got, tc.want)
			}
		})
	}
}

// TestLockedInvokeAllocationBudget is TestInvokeAllocationBudget for the
// scheduler layer: one invocation of a handler that takes eight nested
// mutexes — the benchmark's locks-mat shape — on three ADETS-MAT replicas
// with the schedule trace on, over the zero-latency in-process network on
// the real clock. On top of the fixed path each replica pays for one
// scheduler thread and sixteen traced lock operations. The bound is the
// figure measured when each replica began to reuse its dispatch records
// (46) plus 10 %; the same run read 52 while every request allocated its
// record and the record's bound Exec func on each replica, 55 while each
// thread had a goroutine and a closure of its own, and 118 when every
// grant and unlock built its stream's name and a thread was six objects.
// It read 47 when Send began to borrow its payload, and 46 both before and
// after the client began to copy the result it returns: this handler
// returns none. It reads 48 since nested payloads are pointers, for the
// in-process network's copy of each follower's nested Request (see
// TestInvokeAllocationBudget).
func TestLockedInvokeAllocationBudget(t *testing.T) {
	const budget = 50
	rt := vtime.Real()
	defer rt.Stop()
	c := replobj.NewCluster(rt, replobj.WithLatency(0))
	defer c.Close()
	g, err := c.NewGroup("locks", 3, replobj.WithScheduler(replobj.MAT), replobj.WithSchedTrace(0))
	if err != nil {
		t.Fatal(err)
	}
	mutexes := [8]replobj.MutexID{"m0", "m1", "m2", "m3", "m4", "m5", "m6", "m7"}
	g.Register("work8", func(inv *replobj.Invocation) ([]byte, error) {
		for _, m := range mutexes {
			if err := inv.Lock(m); err != nil {
				return nil, err
			}
		}
		for i := len(mutexes) - 1; i >= 0; i-- {
			if err := inv.Unlock(mutexes[i]); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	g.Start()
	cl := c.NewClient("c0", replobj.WithInvocationTimeout(10*time.Second),
		replobj.WithReplyPolicy(replobj.All))
	var allocs float64
	replobj.Run(rt, func() {
		invoke := func() {
			if _, ierr := cl.Invoke("locks", "work8", nil); ierr != nil && err == nil {
				err = ierr
			}
		}
		for i := 0; i < 200; i++ {
			invoke()
		}
		allocs = testing.AllocsPerRun(2000, invoke)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("one Invoke of 8 nested mutexes, 3 ADETS-MAT replicas, traced, zero-latency inproc: %v allocs (budget %d)", allocs, budget)
	if allocs > budget {
		t.Errorf("one Invoke allocates %v times, budget %d", allocs, budget)
	}
}

// TestInvokeTCPAllocationBudget pins what one invocation allocates over
// loopback TCP, BenchmarkInvokeTCP's shape: one client, three SEQ
// replicas, the real clock, a 1-byte add, every codec and socket on the
// path. It reads 4 since each TCP reader carves the nested Request of a
// Submit or an Ordered, and its Args, from its stream's slab: what is left
// is the handler's result on each replica and the copy the client returns.
// The bound, 5, is that plus one. It was 13 once a TCP reader lent a
// Reply's result from its frame, the client copied only the result it
// returned and the client's Request lived in its call (10 measured; three
// Requests boxed and their Args copied). It was 16 once a logical thread was
// named by (client, call), so that no id text is built or decoded per
// request (13 measured), 23 when Send borrowed its payload and the client's
// Submit, the sequencer's Ordered and each replica's Reply were sent from
// reused cells (20 measured, six ids decoded as strings), 28 when each TCP
// reader began to decode into payload cells it lends (25 measured, every
// sent payload still a new one), 34 when each replica began to reuse its
// dispatch records (31 measured, the six top-level payloads still boxed on
// receipt); the benchmark read 37 before that.
func TestInvokeTCPAllocationBudget(t *testing.T) {
	const budget = 5
	cl := tcpCounterCluster(t)("c0") // connections dialed
	args := []byte{1}
	var err error
	invoke := func() {
		if _, ierr := cl.Invoke("cnt", "add", args); ierr != nil && err == nil {
			err = ierr
		}
	}
	for i := 0; i < 200; i++ { // rings, maps, pools and free lists warm
		invoke()
	}
	allocs := testing.AllocsPerRun(2000, invoke)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("one Invoke, 3 SEQ replicas, loopback TCP: %v allocs (budget %d)", allocs, budget)
	if allocs > budget {
		t.Errorf("one Invoke allocates %v times, budget %d", allocs, budget)
	}
}

// TestTCPConnectionMemoryBudget pins what a connected client costs the
// process: 64 clients, each connected to three SEQ replicas over loopback
// TCP after one call, both ends of every connection in this process. A
// connection end holds what it carries — a buffer of encoded frames only
// while frames wait or are being written, an 8 KiB read buffer — and
// the budget is a fifth of the 1 230 KiB a client cost while each end
// reserved a 128 KiB encoder, a 512-slot queue and a 32 KiB reader.
func TestTCPConnectionMemoryBudget(t *testing.T) {
	const clients, budget = 64, 256 << 10
	connect := tcpCounterCluster(t)
	connect("warm").Close()
	goroutines, heap := runtime.NumGoroutine(), heapInuse()
	cls := make([]*replobj.Client, clients)
	for i := range cls {
		cls[i] = connect(fmt.Sprintf("c%d", i))
	}
	perClient := (int64(heapInuse()) - int64(heap)) / clients
	t.Logf("%d connected clients: %d KiB of heap and %.1f goroutines each (budget %d KiB)",
		clients, perClient>>10, float64(runtime.NumGoroutine()-goroutines)/clients, budget>>10)
	if perClient > budget {
		t.Errorf("a connected client costs %d KiB of heap, budget %d KiB", perClient>>10, budget>>10)
	}
	runtime.KeepAlive(cls)
}
