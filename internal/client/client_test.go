package client

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/replobj/replobj/internal/gcs"
	"github.com/replobj/replobj/internal/replica"
	"github.com/replobj/replobj/internal/transport"
	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

func TestReplyPolicyNeed(t *testing.T) {
	cases := []struct {
		p    ReplyPolicy
		n    int
		want int
	}{
		{First, 3, 1},
		{Majority, 3, 2},
		{Majority, 4, 3},
		{Majority, 1, 1},
		{All, 3, 3},
	}
	for _, c := range cases {
		if got := c.p.need(c.n); got != c.want {
			t.Errorf("%v.need(%d) = %d, want %d", c.p, c.n, got, c.want)
		}
	}
	for _, c := range []struct {
		p    ReplyPolicy
		want string
	}{{First, "first"}, {Majority, "majority"}, {All, "all"}} {
		if got := c.p.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

// fakeGroup simulates replicas that answer Submits directly (no scheduler):
// enough to unit-test the client's collection, retransmission and timeout
// logic in isolation.
type fakeGroup struct {
	rt    vtime.Runtime
	net   *transport.Inproc
	ids   []wire.NodeID
	eps   []transport.Endpoint
	mute  map[wire.NodeID]bool // muted replicas never reply
	delay map[wire.NodeID]time.Duration
	seen  map[string]int // per-id delivery count (across replicas)
}

func newFakeGroup(rt vtime.Runtime, net *transport.Inproc, n int) *fakeGroup {
	fg := &fakeGroup{
		rt:    rt,
		net:   net,
		mute:  make(map[wire.NodeID]bool),
		delay: make(map[wire.NodeID]time.Duration),
		seen:  make(map[string]int),
	}
	for i := 0; i < n; i++ {
		id := wire.ReplicaID("g", i)
		fg.ids = append(fg.ids, id)
		ep := net.Endpoint(id)
		fg.eps = append(fg.eps, ep)
		rt.Go("fake/"+string(id), func() {
			for {
				msg, ok := ep.Recv()
				if !ok {
					return
				}
				sub, ok := msg.Payload.(gcs.Submit)
				if !ok {
					continue
				}
				req, ok := sub.Payload.(replica.Request)
				if !ok {
					continue
				}
				rt.Lock()
				fg.seen[sub.ID]++
				muted := fg.mute[id]
				d := fg.delay[id]
				rt.Unlock()
				if muted {
					continue
				}
				if d > 0 {
					rt.Sleep(d)
				}
				ep.Send(req.ReplyTo, replica.Reply{ID: req.ID, From: id, Result: []byte("ok")})
			}
		})
	}
	return fg
}

// close releases the fake replicas' endpoints so their receive loops exit
// before the virtual kernel reaches quiescence. Call inside vtime.Run.
func (fg *fakeGroup) close() {
	for _, ep := range fg.eps {
		ep.Close()
	}
}

func (fg *fakeGroup) directory() *replica.Directory {
	d := replica.NewDirectory()
	d.Add("g", fg.ids)
	return d
}

func TestClientMajorityReturnsAfterTwoOfThree(t *testing.T) {
	rt := vtime.Virtual()
	defer rt.Stop()
	net := transport.NewInproc(rt)
	fg := newFakeGroup(rt, net, 3)
	rt.Lock()
	fg.delay[fg.ids[2]] = time.Hour // third replica effectively silent
	rt.Unlock()
	c := New(Config{RT: rt, Name: "c1", Directory: fg.directory(), Network: net, Policy: Majority, Timeout: 5 * time.Second})
	vtime.Run(rt, "main", func() {
		defer fg.close()
		defer c.Close()
		out, err := c.Invoke("g", "m", nil)
		if err != nil || string(out) != "ok" {
			t.Errorf("Invoke = (%q, %v)", out, err)
		}
		if now := rt.Now(); now > time.Second {
			t.Errorf("majority reply took %v; must not wait for the slow replica", now)
		}
	})
}

func TestClientAllWaitsForEveryReplica(t *testing.T) {
	rt := vtime.Virtual()
	defer rt.Stop()
	net := transport.NewInproc(rt)
	fg := newFakeGroup(rt, net, 3)
	rt.Lock()
	fg.delay[fg.ids[2]] = 50 * time.Millisecond
	rt.Unlock()
	c := New(Config{RT: rt, Name: "c1", Directory: fg.directory(), Network: net, Policy: All, Timeout: 5 * time.Second})
	vtime.Run(rt, "main", func() {
		defer fg.close()
		defer c.Close()
		if _, err := c.Invoke("g", "m", nil); err != nil {
			t.Fatal(err)
		}
		if now := rt.Now(); now < 50*time.Millisecond {
			t.Errorf("All policy returned at %v, before the slowest replica", now)
		}
	})
}

func TestClientTimesOutWhenQuorumUnreachable(t *testing.T) {
	rt := vtime.Virtual()
	defer rt.Stop()
	net := transport.NewInproc(rt)
	fg := newFakeGroup(rt, net, 3)
	rt.Lock()
	fg.mute[fg.ids[1]] = true
	fg.mute[fg.ids[2]] = true
	rt.Unlock()
	c := New(Config{RT: rt, Name: "c1", Directory: fg.directory(), Network: net, Policy: Majority,
		Timeout: 300 * time.Millisecond, Retransmit: 50 * time.Millisecond})
	vtime.Run(rt, "main", func() {
		defer fg.close()
		defer c.Close()
		_, err := c.Invoke("g", "m", nil)
		if !errors.Is(err, ErrTimeout) {
			t.Errorf("err = %v, want ErrTimeout", err)
		}
	})
}

func TestClientRetransmitsUntilDelivered(t *testing.T) {
	rt := vtime.Virtual()
	defer rt.Stop()
	net := transport.NewInproc(rt)
	fg := newFakeGroup(rt, net, 3)
	// Drop everything from the client for a while; retransmissions after
	// the window must get through.
	cid := wire.ClientID("c1")
	net.SetDropRule(func(from, to wire.NodeID) bool { return from == cid })
	c := New(Config{RT: rt, Name: "c1", Directory: fg.directory(), Network: net, Policy: Majority,
		Timeout: 5 * time.Second, Retransmit: 20 * time.Millisecond})
	vtime.Run(rt, "main", func() {
		defer fg.close()
		defer c.Close()
		rt.Go("heal", func() {
			rt.Sleep(100 * time.Millisecond)
			net.SetDropRule(nil)
		})
		if _, err := c.Invoke("g", "m", nil); err != nil {
			t.Fatal(err)
		}
		if now := rt.Now(); now < 100*time.Millisecond {
			t.Errorf("delivered at %v despite the drop window", now)
		}
	})
}

func TestClientUnknownGroup(t *testing.T) {
	rt := vtime.Virtual()
	defer rt.Stop()
	net := transport.NewInproc(rt)
	c := New(Config{RT: rt, Name: "c1", Directory: replica.NewDirectory(), Network: net})
	vtime.Run(rt, "main", func() {
		defer c.Close()
		if _, err := c.Invoke("ghost", "m", nil); err == nil {
			t.Error("Invoke on unknown group succeeded")
		}
	})
}

func TestClientCloseUnblocksInvoke(t *testing.T) {
	rt := vtime.Virtual()
	defer rt.Stop()
	net := transport.NewInproc(rt)
	fg := newFakeGroup(rt, net, 3)
	rt.Lock()
	for _, id := range fg.ids {
		fg.mute[id] = true
	}
	rt.Unlock()
	c := New(Config{RT: rt, Name: "c1", Directory: fg.directory(), Network: net, Timeout: time.Hour})
	vtime.Run(rt, "main", func() {
		defer fg.close()
		done := vtime.NewMailbox[error](rt, "done")
		rt.Go("invoker", func() {
			_, err := c.Invoke("g", "m", nil)
			done.Put(err)
		})
		rt.Sleep(10 * time.Millisecond)
		c.Close()
		err, _ := done.Get()
		if err == nil {
			t.Error("Invoke survived Close")
		}
	})
}

func TestClientErrorReplyPropagates(t *testing.T) {
	rt := vtime.Virtual()
	defer rt.Stop()
	net := transport.NewInproc(rt)
	// Replicas that reply with an application error.
	ids := []wire.NodeID{wire.ReplicaID("g", 0)}
	ep := net.Endpoint(ids[0])
	rt.Go("errnode", func() {
		for {
			msg, ok := ep.Recv()
			if !ok {
				return
			}
			if sub, ok := msg.Payload.(gcs.Submit); ok {
				req := sub.Payload.(replica.Request)
				ep.Send(req.ReplyTo, replica.Reply{ID: req.ID, From: ids[0], Err: "boom"})
			}
		}
	})
	d := replica.NewDirectory()
	d.Add("g", ids)
	c := New(Config{RT: rt, Name: "c1", Directory: d, Network: net, Policy: First, Timeout: time.Second})
	vtime.Run(rt, "main", func() {
		defer ep.Close()
		defer c.Close()
		_, err := c.Invoke("g", "m", nil)
		if err == nil || err.Error() != "boom" {
			t.Errorf("err = %v, want boom", err)
		}
	})
}

// echoGroup is three fake replicas that answer every request with its own
// logical thread id; replica i answers after delays[i].
func echoGroup(rt vtime.Runtime, net *transport.Inproc, delays [3]time.Duration, onSubmit func(gcs.Submit)) (*replica.Directory, func()) {
	var ids []wire.NodeID
	var eps []transport.Endpoint
	for i := range delays {
		id := wire.ReplicaID("g", i)
		ep := net.Endpoint(id)
		ids, eps = append(ids, id), append(eps, ep)
		rt.Go("echo/"+string(id), func() {
			for {
				msg, ok := ep.Recv()
				if !ok {
					return
				}
				sub := msg.Payload.(gcs.Submit)
				if onSubmit != nil && i == 0 {
					onSubmit(sub)
				}
				req := sub.Payload.(replica.Request)
				rt.Go("echo-reply", func() {
					rt.Sleep(delays[i])
					ep.Send(req.ReplyTo, replica.Reply{ID: req.ID, From: id, Result: []byte(req.ID.Logical)})
				})
			}
		})
	}
	d := replica.NewDirectory()
	d.Add("g", ids)
	return d, func() {
		for _, ep := range eps {
			ep.Close()
		}
	}
}

// TestClientIDsKeepTheirWireForm: the submit id and the logical thread id
// are cut from one string; what goes on the wire must still be
// "<client>#<n>" for the logical thread and its InvocationID.String() for
// the submit, across a change in the counter's width.
func TestClientIDsKeepTheirWireForm(t *testing.T) {
	rt := vtime.Virtual()
	defer rt.Stop()
	net := transport.NewInproc(rt)
	var subs []gcs.Submit
	dir, closeGroup := echoGroup(rt, net, [3]time.Duration{}, func(s gcs.Submit) { subs = append(subs, s) })
	c := New(Config{RT: rt, Name: "c1", Directory: dir, Network: net, Policy: All, Timeout: time.Second})
	vtime.Run(rt, "main", func() {
		defer closeGroup()
		defer c.Close()
		for i := 1; i <= 12; i++ {
			out, err := c.Invoke("g", "m", nil)
			want := fmt.Sprintf("client/c1#%d", i)
			if err != nil || string(out) != want {
				t.Errorf("invocation %d = (%q, %v), want logical thread %q", i, out, err, want)
			}
		}
	})
	if len(subs) != 12 {
		t.Fatalf("replica 0 saw %d submits, want 12", len(subs))
	}
	for i, sub := range subs {
		req := sub.Payload.(replica.Request)
		wantID := wire.InvocationID{Logical: wire.LogicalID(fmt.Sprintf("client/c1#%d", i+1))}
		if req.ID != wantID || sub.ID != wantID.String() || sub.Origin != "client/c1" {
			t.Errorf("submit %d: id %q, request id %+v, origin %q; want %q, %+v, client/c1",
				i+1, sub.ID, req.ID, sub.Origin, wantID.String(), wantID)
		}
	}
}

// TestClientIgnoresRepliesToEarlierCalls: the reply slots are reused from
// call to call, so a straggler's answer to the previous invocation must not
// be taken for its answer to the current one.
func TestClientIgnoresRepliesToEarlierCalls(t *testing.T) {
	rt := vtime.Virtual()
	defer rt.Stop()
	net := transport.NewInproc(rt)
	// Replica 2 answers 3 ms late: its reply to the first call lands in the
	// middle of the second.
	dir, closeGroup := echoGroup(rt, net, [3]time.Duration{0, 0, 3 * time.Millisecond}, nil)
	c := New(Config{RT: rt, Name: "c1", Directory: dir, Network: net, Policy: Majority, Timeout: time.Second})
	vtime.Run(rt, "main", func() {
		defer closeGroup()
		defer c.Close()
		if _, err := c.Invoke("g", "m", nil); err != nil {
			t.Error(err)
			return
		}
		replies, err := c.InvokeAll("g", "m", nil)
		if err != nil || len(replies) != 3 {
			t.Errorf("InvokeAll = (%d replies, %v), want 3", len(replies), err)
		}
		for node, rep := range replies {
			if rep.From != node || string(rep.Result) != "client/c1#2" {
				t.Errorf("%s: slot holds the answer of %s to %q, want its own to client/c1#2", node, rep.From, rep.Result)
			}
		}
	})
}

// TestClientRejectsConcurrentInvocations: one goroutine at a time is the
// contract the reused call state relies on; a second concurrent Invoke gets
// an error, it does not corrupt the first.
func TestClientRejectsConcurrentInvocations(t *testing.T) {
	rt := vtime.Virtual()
	defer rt.Stop()
	net := transport.NewInproc(rt)
	dir, closeGroup := echoGroup(rt, net, [3]time.Duration{5 * time.Millisecond, 5 * time.Millisecond, 5 * time.Millisecond}, nil)
	c := New(Config{RT: rt, Name: "c1", Directory: dir, Network: net, Policy: All, Timeout: time.Second})
	vtime.Run(rt, "main", func() {
		defer closeGroup()
		defer c.Close()
		second := vtime.NewMailbox[error](rt, "second")
		rt.Go("intruder", func() {
			rt.Sleep(time.Millisecond) // the first call is in flight
			_, err := c.Invoke("g", "m", nil)
			second.Put(err)
		})
		if out, err := c.Invoke("g", "m", nil); err != nil || string(out) != "client/c1#1" {
			t.Errorf("first Invoke = (%q, %v), want it undisturbed", out, err)
		}
		if err, _ := second.Get(); err == nil {
			t.Error("a second concurrent Invoke succeeded")
		}
	})
}
