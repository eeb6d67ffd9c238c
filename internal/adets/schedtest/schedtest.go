// Package schedtest provides a multi-replica test harness for ADETS
// schedulers. It emulates the middleware around a scheduler — the totally
// ordered event stream (request submissions, scheduler broadcasts, nested
// invocation replies) and the invocation context — without transport or
// group communication, so scheduler semantics and cross-replica
// determinism can be tested in isolation and in virtual time.
package schedtest

import (
	"fmt"
	"time"

	"github.com/replobj/replobj/internal/adets"
	"github.com/replobj/replobj/internal/gcs"
	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

// Script is a request body: it receives the per-replica invocation context.
type Script func(ic *Ictx)

// Cluster drives N scheduler replicas through one totally ordered event
// stream.
type Cluster struct {
	RT     *vtime.VirtualRuntime
	Scheds []adets.Scheduler
	Reents []*adets.Reentrancy

	n        int
	mailbox  []*vtime.Mailbox[event]
	results  []*vtime.Mailbox[string]
	traces   [][]string
	threads  []map[wire.LogicalID]*adets.Thread
	nested   []map[wire.LogicalID][]*adets.Thread // per-logical stack of nested-blocked threads
	seenIDs  map[string]bool
	reqSeq   uint64
	replyLat time.Duration
}

type event struct {
	kind    string // "submit", "ordered", "reply"
	req     adets.Request
	logical wire.LogicalID
	id      string
	payload any
}

// New builds a cluster of n replicas whose schedulers come from factory.
func New(n int, factory func(i int) adets.Scheduler) *Cluster {
	rt := vtime.Virtual()
	c := &Cluster{
		RT:       rt,
		n:        n,
		seenIDs:  make(map[string]bool),
		replyLat: time.Millisecond,
	}
	peers := make([]wire.NodeID, n)
	for i := 0; i < n; i++ {
		peers[i] = wire.ReplicaID("g", i)
	}
	for i := 0; i < n; i++ {
		s := factory(i)
		c.Scheds = append(c.Scheds, s)
		c.Reents = append(c.Reents, adets.NewReentrancy(rt, s))
		c.mailbox = append(c.mailbox, vtime.NewMailbox[event](rt, fmt.Sprintf("schedtest/%d", i)))
		c.results = append(c.results, vtime.NewMailbox[string](rt, fmt.Sprintf("results/%d", i)))
		c.traces = append(c.traces, nil)
		c.threads = append(c.threads, make(map[wire.LogicalID]*adets.Thread))
		c.nested = append(c.nested, make(map[wire.LogicalID][]*adets.Thread))
		env := adets.Env{
			RT:       rt,
			Self:     peers[i],
			Peers:    peers,
			SendPeer: func(wire.NodeID, any) {},
			BroadcastOrdered: func(id string, payload any) {
				c.publish(event{kind: "ordered", id: id, payload: payload})
			},
		}
		s.Start(env)
	}
	for i := 0; i < n; i++ {
		i := i
		rt.Go(fmt.Sprintf("dispatch/%d", i), func() { c.dispatch(i) })
	}
	return c
}

// publish appends ev to every replica's stream atomically (same order
// everywhere) after id-based deduplication.
func (c *Cluster) publish(ev event) {
	c.RT.Lock()
	if ev.id != "" {
		if c.seenIDs[ev.id] {
			c.RT.Unlock()
			return
		}
		c.seenIDs[ev.id] = true
	}
	for i := 0; i < c.n; i++ {
		c.mailbox[i].PutLocked(ev)
	}
	c.RT.Unlock()
}

func (c *Cluster) dispatch(i int) {
	for {
		ev, ok := c.mailbox[i].Get()
		if !ok {
			return
		}
		switch ev.kind {
		case "submit":
			c.Scheds[i].Submit(ev.req)
		case "ordered":
			if ve, ok := ev.payload.(viewEvent); ok {
				c.Scheds[i].ViewChanged(ve.v)
				continue
			}
			c.Scheds[i].HandleOrdered(ev.id, ev.payload)
		case "reply":
			c.RT.Lock()
			stack := c.nested[i][ev.logical]
			var t *adets.Thread
			if n := len(stack); n > 0 {
				t = stack[n-1]
				c.nested[i][ev.logical] = stack[:n-1]
			}
			c.RT.Unlock()
			if t != nil {
				c.Scheds[i].EndNested(t)
			}
		}
	}
}

// Submit injects a request executing script under the given logical thread
// on every replica. Callback marks it as a callback request. All replicas
// receive the submission at the same stream position (one lock hold).
func (c *Cluster) Submit(logical wire.LogicalID, callback bool, script Script) {
	c.SubmitClasses(logical, callback, nil, script)
}

// SubmitClasses is Submit with declared conflict classes: conflict-aware
// schedulers (ADETS-CC) partition such requests onto worker lanes, every
// other scheduler ignores the declaration. Nil classes mean "global".
func (c *Cluster) SubmitClasses(logical wire.LogicalID, callback bool, classes []string, script Script) {
	c.RT.Lock()
	defer c.RT.Unlock()
	c.reqSeq++
	seq := c.reqSeq
	for i := 0; i < c.n; i++ {
		i := i
		req := adets.Request{
			ID:       wire.InvocationID{Logical: logical, Seq: seq},
			Logical:  logical,
			Callback: callback,
			Classes:  classes,
			Seq:      seq,
			Exec: func(t *adets.Thread) {
				c.RT.Lock()
				c.threads[i][logical] = t
				c.RT.Unlock()
				ic := &Ictx{c: c, replica: i, t: t}
				script(ic)
				c.RT.Lock()
				delete(c.threads[i], logical)
				c.RT.Unlock()
				c.results[i].Put(string(logical))
			},
		}
		c.mailbox[i].PutLocked(event{kind: "submit", req: req})
	}
}

// Await blocks until every replica finished k requests, failing on timeout.
// Returns the completion order per replica.
func (c *Cluster) Await(k int, timeout time.Duration) ([][]string, error) {
	out := make([][]string, c.n)
	for i := 0; i < c.n; i++ {
		for len(out[i]) < k {
			v, ok, timedOut := c.results[i].GetTimeout(timeout)
			if timedOut {
				return out, fmt.Errorf("replica %d: timed out after %d/%d completions", i, len(out[i]), k)
			}
			if !ok {
				return out, fmt.Errorf("replica %d: results closed", i)
			}
			out[i] = append(out[i], v)
		}
	}
	return out, nil
}

// Traces returns each replica's recorded trace.
func (c *Cluster) Traces() [][]string {
	c.RT.Lock()
	defer c.RT.Unlock()
	out := make([][]string, c.n)
	for i := range c.traces {
		out[i] = append([]string(nil), c.traces[i]...)
	}
	return out
}

// Close stops schedulers and dispatchers; call inside Run.
func (c *Cluster) Close() {
	for _, s := range c.Scheds {
		s.Stop()
	}
	for _, mb := range c.mailbox {
		mb.Close()
	}
}

// Run executes fn on a tracked goroutine and tears the cluster down.
func (c *Cluster) Run(fn func()) {
	vtime.Run(c.RT, "schedtest-main", func() {
		fn()
		c.Close()
	})
	c.RT.Stop()
}

// ViewChange announces a new view to every scheduler at the same stream
// position (used by LSA fail-over tests).
func (c *Cluster) ViewChange(v gcs.View) {
	// Deliver through the ordered stream so position is identical.
	c.publish(event{kind: "ordered", id: "viewchange/" + fmt.Sprint(v.Epoch), payload: viewEvent{v: v}})
}

type viewEvent struct{ v gcs.View }

// Ictx is the invocation context handed to scripts: the Go counterpart of
// the transformed synchronization operations of the paper's object code.
type Ictx struct {
	c        *Cluster
	replica  int
	t        *adets.Thread
	nestedCt int
}

// Replica returns the replica index executing this context.
func (ic *Ictx) Replica() int { return ic.replica }

// Thread returns the executing scheduler thread.
func (ic *Ictx) Thread() *adets.Thread { return ic.t }

// Lock acquires a (reentrant) mutex through the scheduler.
func (ic *Ictx) Lock(m adets.MutexID) error {
	return ic.c.Reents[ic.replica].Lock(ic.t, m)
}

// Unlock releases a mutex.
func (ic *Ictx) Unlock(m adets.MutexID) error {
	return ic.c.Reents[ic.replica].Unlock(ic.t, m)
}

// Wait waits on (m, c); d > 0 bounds the wait.
func (ic *Ictx) Wait(m adets.MutexID, cond adets.CondID, d time.Duration) (bool, error) {
	return ic.c.Reents[ic.replica].Wait(ic.t, m, cond, d)
}

// Notify wakes one waiter of (m, c).
func (ic *Ictx) Notify(m adets.MutexID, cond adets.CondID) error {
	return ic.c.Reents[ic.replica].Notify(ic.t, m, cond)
}

// NotifyAll wakes all waiters of (m, c).
func (ic *Ictx) NotifyAll(m adets.MutexID, cond adets.CondID) error {
	return ic.c.Reents[ic.replica].NotifyAll(ic.t, m, cond)
}

// Yield offers a scheduling point.
func (ic *Ictx) Yield() { ic.c.Scheds[ic.replica].Yield(ic.t) }

// Depth returns the calling logical thread's reentrant hold depth on m.
func (ic *Ictx) Depth(m adets.MutexID) int {
	return ic.c.Reents[ic.replica].Depth(ic.t, m)
}

// DeclareNoMoreLocks invokes the lock-prediction hook if the scheduler
// supports it.
func (ic *Ictx) DeclareNoMoreLocks() {
	if lp, ok := ic.c.Scheds[ic.replica].(adets.LockPredictor); ok {
		lp.NoMoreLocks(ic.t)
	}
}

// Compute simulates local computation for d, exactly as the paper does:
// the thread suspends, freeing the (virtual) CPU.
func (ic *Ictx) Compute(d time.Duration) { ic.c.RT.Sleep(d) }

// Nested simulates a nested invocation taking d end to end: the thread
// blocks at the scheduler; the reply arrives as a totally-ordered event.
func (ic *Ictx) Nested(d time.Duration) {
	ic.nestedCt++
	id := fmt.Sprintf("reply/%s/%d", ic.t.Logical, ic.nestedCt)
	logical := ic.t.Logical.Logical // schedtest names its threads by text alone
	c := ic.c
	c.RT.Lock()
	c.nested[ic.replica][logical] = append(c.nested[ic.replica][logical], ic.t)
	c.RT.Unlock()
	c.RT.After(d, "nested-reply", func() {
		c.publish(event{kind: "reply", id: id, logical: logical})
	})
	c.Scheds[ic.replica].BeginNested(ic.t)
}

// Trace appends a record to the replica's trace (used to compare
// cross-replica execution orders).
func (ic *Ictx) Trace(format string, args ...any) {
	c := ic.c
	c.RT.Lock()
	c.traces[ic.replica] = append(c.traces[ic.replica], fmt.Sprintf(format, args...))
	c.RT.Unlock()
}
