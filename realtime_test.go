package replobj_test

// End-to-end validation that the identical stack runs on the wall clock
// (vtime.Real) — over the in-process transport and over real TCP — since
// all experiments use the virtual kernel. Durations are kept short and
// assertions generous: these tests check correctness, not timing.

import (
	"fmt"
	"testing"
	"time"

	replobj "github.com/replobj/replobj"
	"github.com/replobj/replobj/internal/transport"
	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

func realCounterWorkload(t *testing.T, c *replobj.Cluster, kind replobj.SchedulerKind) {
	t.Helper()
	counterGroup(t, c, "cnt", 3, replobj.WithScheduler(kind))
	done := make(chan error, 2)
	for ci := 0; ci < 2; ci++ {
		name := fmt.Sprintf("c%d", ci)
		go func() {
			cl := c.NewClient(name, replobj.WithInvocationTimeout(10*time.Second))
			var err error
			for i := 0; i < 5 && err == nil; i++ {
				_, err = cl.Invoke("cnt", "add", []byte{1})
			}
			done <- err
		}()
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("client error: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("clients timed out on the real clock")
		}
	}
	reader := c.NewClient("reader", replobj.WithReplyPolicy(replobj.All),
		replobj.WithInvocationTimeout(10*time.Second))
	replies, err := reader.InvokeAll("cnt", "get", nil)
	if err != nil {
		t.Fatal(err)
	}
	for node, rep := range replies {
		if got := fromU64(rep.Result); got != 10 {
			t.Errorf("%v: counter = %d, want 10", node, got)
		}
	}
}

func TestRealClockInprocAllSchedulers(t *testing.T) {
	if testing.Short() {
		t.Skip("real-clock test")
	}
	for _, kind := range []replobj.SchedulerKind{replobj.SEQ, replobj.ADSAT, replobj.MAT, replobj.LSA, replobj.PDS} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			rt := vtime.Real()
			defer rt.Stop()
			c := replobj.NewCluster(rt, replobj.WithLatency(200*time.Microsecond))
			defer c.Close()
			realCounterWorkload(t, c, kind)
		})
	}
}

func TestRealClockTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("real-clock TCP test")
	}
	rt := vtime.Real()
	defer rt.Stop()
	addrs := map[wire.NodeID]string{
		wire.ClientID("c0"):     "127.0.0.1:0",
		wire.ClientID("c1"):     "127.0.0.1:0",
		wire.ClientID("reader"): "127.0.0.1:0",
	}
	for i := 0; i < 3; i++ {
		addrs[wire.ReplicaID("cnt", i)] = "127.0.0.1:0"
	}
	net := transport.NewTCP(rt, addrs)
	c := replobj.NewCluster(rt, replobj.WithNetwork(net))
	defer c.Close()
	realCounterWorkload(t, c, replobj.MAT)
}

// TestNodesDoNotShareARuntimeLock: on the wall clock every replica and
// client of a cluster runs on a runtime of its own, as in a deployment of one
// process per node — a replica holding its lock does not stall an invocation
// on another group.
func TestNodesDoNotShareARuntimeLock(t *testing.T) {
	if testing.Short() {
		t.Skip("real-clock test")
	}
	for _, tc := range []struct {
		name    string
		network func(*vtime.RealRuntime) replobj.ClusterOption
	}{
		{"tcp", func(rt *vtime.RealRuntime) replobj.ClusterOption {
			addrs := map[wire.NodeID]string{wire.ClientID("c0"): "127.0.0.1:0"}
			for _, g := range []wire.GroupID{"held", "free"} {
				for i := 0; i < 3; i++ {
					addrs[wire.ReplicaID(g, i)] = "127.0.0.1:0"
				}
			}
			return replobj.WithNetwork(transport.NewTCP(rt, addrs))
		}},
		{"inproc", func(*vtime.RealRuntime) replobj.ClusterOption { return replobj.WithLatency(0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := vtime.Real()
			defer rt.Stop()
			c := replobj.NewCluster(rt, tc.network(rt))
			defer c.Close()
			held := counterGroup(t, c, "held", 3, replobj.WithScheduler(replobj.SEQ))
			counterGroup(t, c, "free", 3, replobj.WithScheduler(replobj.SEQ))
			cl := c.NewClient("c0", replobj.WithInvocationTimeout(10*time.Second))
			if _, err := cl.Invoke("free", "add", []byte{1}); err != nil { // connections up
				t.Fatal(err)
			}

			lock := held.Replica(0).Runtime()
			lock.Lock()
			done := make(chan error, 1)
			go func() {
				_, err := cl.Invoke("free", "add", []byte{1})
				done <- err
			}()
			select {
			case err := <-done:
				lock.Unlock()
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(2 * time.Second):
				lock.Unlock()
				<-done
				t.Fatal("an invocation on another group waited for a replica's runtime lock")
			}
			if _, err := cl.Invoke("held", "add", []byte{1}); err != nil {
				t.Fatalf("the replica that held its lock: %v", err)
			}
		})
	}
}

// TestRealClockExecSpansInsideRTT: the nodes of a wall-clock cluster read
// one clock, so every replica's exec span lies inside the rtt span of the
// client that made the request. The client is built 20 ms after the
// replicas: a clock origin per node would put every exec span after its rtt.
func TestRealClockExecSpansInsideRTT(t *testing.T) {
	const calls = 20
	rt := vtime.Real()
	defer rt.Stop()
	col := replobj.NewSpanCollector(0)
	c := replobj.NewCluster(rt, replobj.WithLatency(0), replobj.WithSpans(col))
	defer c.Close()
	counterGroup(t, c, "cnt", 3, replobj.WithScheduler(replobj.SEQ))
	time.Sleep(20 * time.Millisecond)
	// Policy All: every replica has executed before the rtt span ends.
	cl := c.NewClient("c0", replobj.WithInvocationTimeout(10*time.Second),
		replobj.WithReplyPolicy(replobj.All))
	for i := 0; i < calls; i++ {
		if _, err := cl.Invoke("cnt", "add", []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	spans := col.Snapshot()
	rtts := make(map[uint64]replobj.Span)
	for _, sp := range spans {
		if sp.Name == "rtt" {
			rtts[sp.Trace] = sp
		}
	}
	execs := 0
	for _, sp := range spans {
		if sp.Name != "exec" {
			continue
		}
		execs++
		rtt, ok := rtts[sp.Trace]
		if !ok {
			t.Errorf("exec span on %s has no rtt span", sp.Node)
			continue
		}
		if sp.Start < rtt.Start || sp.Start+sp.Dur > rtt.Start+rtt.Dur {
			t.Errorf("exec on %s [%v, %v] outside its rtt [%v, %v]",
				sp.Node, sp.Start, sp.Start+sp.Dur, rtt.Start, rtt.Start+rtt.Dur)
		}
	}
	if execs != 3*calls {
		t.Errorf("%d exec spans, want %d", execs, 3*calls)
	}
}
