package replobj_test

// What a failure costs a client that sends its request to one member: the
// sequencer lost with the only copy, and a contact that is not the
// sequencer.

import (
	"fmt"
	"testing"
	"time"

	replobj "github.com/replobj/replobj"
	"github.com/replobj/replobj/internal/vtime"
)

// submitsRelayed sums replobj_gcs_submits_relayed_total over a group's
// replicas.
func submitsRelayed(reg *replobj.MetricsRegistry, group string, replicas int) uint64 {
	return groupCounter(reg, "replobj_gcs_submits_relayed_total", group, replicas)
}

// groupCounter sums the per-node counter metric over a group's replicas.
func groupCounter(reg *replobj.MetricsRegistry, metric, group string, replicas int) (n uint64) {
	for i := 0; i < replicas; i++ {
		n += reg.Counter(fmt.Sprintf(`%s{node="%s/%d"}`, metric, group, i)).Value()
	}
	return n
}

// TestSequencerLostWithTheOnlyCopy: the sequencer takes a request's one
// copy and fails before its Ordered reaches anyone. The client's
// retransmission goes to every member, the survivors' view change makes
// rank 1 the sequencer, and the request executes once; the client then
// addresses rank 1 and pays nothing more.
func TestSequencerLostWithTheOnlyCopy(t *testing.T) {
	const retransmit = 300 * time.Millisecond
	rt := vtime.Virtual()
	c := replobj.NewCluster(rt)
	g := counterGroup(t, c, "cnt", 3,
		replobj.WithScheduler(replobj.SEQ),
		replobj.WithFailureDetection(true),
		replobj.WithSchedTrace(0))
	run(rt, c, func() {
		cl := c.NewClient("c1", replobj.WithInvocationTimeout(10*time.Second), replobj.WithRetransmit(retransmit))
		add := func() (uint64, time.Duration) {
			t0 := rt.Now()
			out, err := cl.Invoke("cnt", "add", []byte{1})
			if err != nil {
				t.Fatal(err)
			}
			return fromU64(out), rt.Now() - t0
		}
		for i := 0; i < 3; i++ {
			add()
		}
		seq0 := g.Members()[0]
		// From here on nothing the sequencer sends arrives: it still takes
		// the request in, and orders it for itself alone.
		if err := c.SetDropRule(func(from, _ replobj.NodeID) bool { return from == seq0 }); err != nil {
			t.Fatal(err)
		}
		v, took := add()
		if v != 4 {
			t.Errorf("counter = %d after the fail-over, want 4 (executed exactly once)", v)
		}
		if took < retransmit || took >= 2*retransmit {
			t.Errorf("fail-over of the in-flight request took %v, want one retransmit interval (%v)", took, retransmit)
		}
		if err := c.Crash(seq0); err != nil {
			t.Fatal(err)
		}
		if v, took := add(); v != 5 || took >= retransmit {
			t.Errorf("next call = %d after %v, want 5 without a retransmission", v, took)
		}
		rt.Sleep(10 * time.Millisecond)
		if d := replobj.FirstTraceDivergence(g.Trace(1), g.Trace(2)); d != nil {
			t.Errorf("survivors diverged: %v", d)
		}
	})
}

// TestClientPointedAtFollower: a contact that is alive but not the
// sequencer relays; the request costs one more hop — 7 messages instead of
// 6 — and never a timeout. The relay counter is how an operator sees it.
func TestClientPointedAtFollower(t *testing.T) {
	const retransmit = 100 * time.Millisecond
	rt := vtime.Virtual()
	reg := replobj.NewMetricsRegistry()
	c := replobj.NewCluster(rt, replobj.WithMetrics(reg))
	g := counterGroup(t, c, "cnt", 3, replobj.WithScheduler(replobj.SEQ))
	run(rt, c, func() {
		cl := c.NewClient("c1", replobj.WithInvocationTimeout(5*time.Second), replobj.WithRetransmit(retransmit))
		add := func() time.Duration {
			t0 := rt.Now()
			if _, err := cl.Invoke("cnt", "add", []byte{1}); err != nil {
				t.Fatal(err)
			}
			took := rt.Now() - t0
			rt.Sleep(10 * time.Millisecond) // the reply the majority did not wait for
			return took
		}
		sent := reg.Counter(`replobj_transport_msgs_sent_total{net="inproc"}`)
		add() // introduction: every member hears the request, the followers relay it
		relayed, msgs := submitsRelayed(reg, "cnt", 3), sent.Value()
		add()
		if d := submitsRelayed(reg, "cnt", 3) - relayed; d != 0 {
			t.Errorf("%d submits relayed by a request sent to the sequencer, want 0", d)
		}
		if d := sent.Value() - msgs; d != 6 {
			t.Errorf("%d messages for a request sent to the sequencer, want 6", d)
		}

		// Cut the client off from rank 0 for one call: the retransmission
		// completes it through the followers, and the contact moves to rank 1.
		seq0, self := g.Members()[0], cl.NodeID()
		if err := c.SetDropRule(func(from, to replobj.NodeID) bool {
			return from == self && to == seq0 || from == seq0 && to == self
		}); err != nil {
			t.Fatal(err)
		}
		if took := add(); took < retransmit || took >= 2*retransmit {
			t.Errorf("call with the contact unreachable took %v, want one retransmit interval (%v)", took, retransmit)
		}
		if err := c.SetDropRule(nil); err != nil {
			t.Fatal(err)
		}

		relayed, msgs = submitsRelayed(reg, "cnt", 3), sent.Value()
		if took := add(); took >= retransmit {
			t.Errorf("call through a follower took %v, want no retransmission", took)
		}
		if d := submitsRelayed(reg, "cnt", 3) - relayed; d != 1 {
			t.Errorf("%d submits relayed by a request sent to a follower, want 1", d)
		}
		if d := sent.Value() - msgs; d != 7 {
			t.Errorf("%d messages for a request sent to a follower, want 7", d)
		}
	})
}
