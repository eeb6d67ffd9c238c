//go:build !race

package replobj_test

import (
	"testing"
	"time"

	replobj "github.com/replobj/replobj"
	"github.com/replobj/replobj/internal/vtime"
)

// TestInvokeAllocationBudget pins what one invocation allocates across the
// whole stack — client stub, group communication on three replicas,
// dispatch, SEQ scheduler, mailboxes — over the zero-latency in-process
// network on the real clock (no codec and no sockets: the wire package
// holds its own budgets). The bound is the figure measured when the
// per-request allocation diet landed (68) plus 10 %; the same run read 151
// before it. Much of what is left is the in-process network's timer per
// message, which TCP deployments do not pay. The race detector allocates on
// its own, hence the build tag.
func TestInvokeAllocationBudget(t *testing.T) {
	const budget = 75
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
