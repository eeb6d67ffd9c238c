package client

import (
	"errors"
	"fmt"
	"reflect"
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

// fakeGroup simulates a replica group without schedulers or a sequencer:
// the first copy of a request to reach any member stands for its ordering —
// every member answers it, as every replica executes what the total order
// delivers — and each further copy is answered again by the member that
// received it, as a replica replays its cached reply to a retransmission.
// It records which member received how many copies of which request.
// Enough to unit-test the client's transmission, collection,
// retransmission and timeout logic in isolation.
type fakeGroup struct {
	rt  vtime.Runtime
	net *transport.Inproc
	ids []wire.NodeID
	eps []transport.Endpoint

	// guarded by the runtime lock
	mute   map[wire.NodeID]bool // muted replicas never reply
	delay  map[wire.NodeID]time.Duration
	first  []gcs.Submit                // each request's first copy, in order of arrival
	copies map[wire.InvocationID][]int // copies[id][rank]: copies that reached the member
}

func newFakeGroup(rt vtime.Runtime, net *transport.Inproc, n int) *fakeGroup {
	fg := &fakeGroup{
		rt:     rt,
		net:    net,
		mute:   make(map[wire.NodeID]bool),
		delay:  make(map[wire.NodeID]time.Duration),
		copies: make(map[wire.InvocationID][]int),
	}
	for i := 0; i < n; i++ {
		id := wire.ReplicaID("g", i)
		fg.ids = append(fg.ids, id)
		fg.eps = append(fg.eps, net.Endpoint(id))
	}
	for i := range fg.ids {
		rt.Go("fake/"+string(fg.ids[i]), func() { fg.serve(i) })
	}
	return fg
}

func (fg *fakeGroup) serve(rank int) {
	for {
		msg, ok := fg.eps[rank].Recv()
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
		fg.rt.Lock()
		got := fg.copies[req.ID]
		fresh := got == nil
		if fresh {
			got = make([]int, len(fg.ids))
			fg.copies[req.ID] = got
			fg.first = append(fg.first, sub)
		}
		got[rank]++
		fg.rt.Unlock()
		if !fresh {
			fg.answer(rank, req)
			continue
		}
		for r := range fg.ids {
			fg.answer(r, req)
		}
	}
}

// answer sends the member's reply — the request's logical thread id — after
// the member's delay, unless it is muted.
func (fg *fakeGroup) answer(rank int, req replica.Request) {
	id := fg.ids[rank]
	fg.rt.Lock()
	muted, d := fg.mute[id], fg.delay[id]
	fg.rt.Unlock()
	if muted {
		return
	}
	fg.rt.Go("fake-reply/"+string(id), func() {
		fg.rt.Sleep(d)
		fg.eps[rank].Send(req.ReplyTo, replica.Reply{ID: req.ID, From: id, Result: []byte(req.ID.Logical)})
	})
}

// received returns, per member, how many copies of the n-th request (from
// 1, in order of first arrival) reached it.
func (fg *fakeGroup) received(n int) []int {
	fg.rt.Lock()
	defer fg.rt.Unlock()
	if n > len(fg.first) {
		return nil
	}
	return append([]int(nil), fg.copies[fg.first[n-1].Payload.(replica.Request).ID]...)
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
	d.Add("g", fg.ids, false)
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
		if err != nil || string(out) != "client/c1#1" {
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
	d.Add("g", ids, false)
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

// TestClientIDsKeepTheirWireForm: the logical thread id is built in a
// reused buffer; what goes on the wire must still be "<client>#<n>" for the
// logical thread, across a change in the counter's width, and the submit is
// the client's n-th call by number, with no text.
func TestClientIDsKeepTheirWireForm(t *testing.T) {
	rt := vtime.Virtual()
	defer rt.Stop()
	net := transport.NewInproc(rt)
	fg := newFakeGroup(rt, net, 3)
	c := New(Config{RT: rt, Name: "c1", Directory: fg.directory(), Network: net, Policy: All, Timeout: time.Second})
	vtime.Run(rt, "main", func() {
		defer fg.close()
		defer c.Close()
		for i := 1; i <= 12; i++ {
			out, err := c.Invoke("g", "m", nil)
			want := fmt.Sprintf("client/c1#%d", i)
			if err != nil || string(out) != want {
				t.Errorf("invocation %d = (%q, %v), want logical thread %q", i, out, err, want)
			}
		}
	})
	subs := fg.first
	if len(subs) != 12 {
		t.Fatalf("the group saw %d requests, want 12", len(subs))
	}
	for i, sub := range subs {
		req := sub.Payload.(replica.Request)
		wantID := wire.InvocationID{Logical: wire.LogicalID(fmt.Sprintf("client/c1#%d", i+1))}
		if n := uint64(i + 1); req.ID != wantID || req.Call != n || sub.ID != "" || sub.Call != n || sub.Origin != "client/c1" {
			t.Errorf("submit %d: id %q call %d, request id %+v call %d, origin %q; want no id, call %d, %+v, client/c1",
				i+1, sub.ID, sub.Call, req.ID, req.Call, sub.Origin, n, wantID)
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
	fg := newFakeGroup(rt, net, 3)
	rt.Lock()
	fg.delay[fg.ids[2]] = 3 * time.Millisecond
	rt.Unlock()
	c := New(Config{RT: rt, Name: "c1", Directory: fg.directory(), Network: net, Policy: Majority, Timeout: time.Second})
	vtime.Run(rt, "main", func() {
		defer fg.close()
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
	fg := newFakeGroup(rt, net, 3)
	rt.Lock()
	for _, id := range fg.ids {
		fg.delay[id] = 5 * time.Millisecond
	}
	rt.Unlock()
	c := New(Config{RT: rt, Name: "c1", Directory: fg.directory(), Network: net, Policy: All, Timeout: time.Second})
	vtime.Run(rt, "main", func() {
		defer fg.close()
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

// contactHarness is a three-member fake group and a Majority client with a
// 20 ms retransmit interval.
func contactHarness(t *testing.T, directCopies bool) (*vtime.VirtualRuntime, *fakeGroup, *replica.Directory, *Client) {
	t.Helper()
	rt := vtime.Virtual()
	t.Cleanup(rt.Stop)
	net := transport.NewInproc(rt)
	fg := newFakeGroup(rt, net, 3)
	dir := replica.NewDirectory()
	dir.Add("g", fg.ids, directCopies)
	c := New(Config{RT: rt, Name: "c1", Directory: dir, Network: net, Policy: Majority,
		Timeout: time.Second, Retransmit: 20 * time.Millisecond})
	return rt, fg, dir, c
}

// invokeTimed runs one invocation, fails the test on error and returns how
// long it took.
func invokeTimed(t *testing.T, rt vtime.Runtime, c *Client) time.Duration {
	t.Helper()
	t0 := rt.Now()
	if _, err := c.Invoke("g", "m", nil); err != nil {
		t.Fatal(err)
	}
	return rt.Now() - t0
}

func wantCopies(t *testing.T, fg *fakeGroup, call int, want ...int) {
	t.Helper()
	fg.rt.Sleep(5 * time.Millisecond) // copies to members the policy did not wait for
	if got := fg.received(call); !reflect.DeepEqual(got, want) {
		t.Errorf("call %d: copies per member = %v, want %v", call, got, want)
	}
}

// TestOneCopyToTheContactAfterIntroduction: the first request a client sends
// to a group goes to every member (each must have heard from the client
// before it can answer it over TCP); from then on one copy goes to rank 0.
func TestOneCopyToTheContactAfterIntroduction(t *testing.T) {
	rt, fg, _, c := contactHarness(t, false)
	vtime.Run(rt, "main", func() {
		defer fg.close()
		defer c.Close()
		invokeTimed(t, rt, c)
		wantCopies(t, fg, 1, 1, 1, 1)
		for call := 2; call <= 5; call++ {
			invokeTimed(t, rt, c)
			wantCopies(t, fg, call, 1, 0, 0)
		}
	})
}

// TestDirectCopiesGoToTheReplyQuorum: members of a direct-copy group act on
// the client's own copy, but only the answers the reply policy waits for
// gain by it, so after the introduction a request goes to the contact and
// the need − 1 members after it, and names them. A retransmission that
// moves the contact moves the set with it.
func TestDirectCopiesGoToTheReplyQuorum(t *testing.T) {
	rt, fg, _, c := contactHarness(t, true)
	vtime.Run(rt, "main", func() {
		defer fg.close()
		defer c.Close()
		wantSet := func(call int, mask uint8, copies ...int) {
			t.Helper()
			wantCopies(t, fg, call, copies...)
			rt.Lock()
			got := fg.first[call-1].Payload.(replica.Request).Copies
			rt.Unlock()
			if got != mask {
				t.Errorf("call %d names copy set %03b, want %03b", call, got, mask)
			}
		}
		invokeTimed(t, rt, c)
		wantSet(1, 0, 1, 1, 1) // the introduction: every member
		invokeTimed(t, rt, c)
		wantSet(2, 0b011, 1, 1, 0) // Majority: the contact and one more
		c.policy = First
		invokeTimed(t, rt, c)
		wantSet(3, 0b001, 1, 0, 0)
		c.policy = Majority
		if _, err := c.InvokeAll("g", "m", nil); err != nil {
			t.Fatal(err)
		}
		wantSet(4, 0, 1, 1, 1)

		// Rank 0 stays silent and so, until the second retransmission, do
		// the others: ranks 1 and 2 answer it, and the contact moves to 1.
		rt.Lock()
		for _, id := range fg.ids {
			fg.mute[id] = true
		}
		rt.Unlock()
		rt.Go("unmute", func() {
			rt.Sleep(30 * time.Millisecond)
			rt.Lock()
			fg.mute[fg.ids[1]], fg.mute[fg.ids[2]] = false, false
			rt.Unlock()
		})
		invokeTimed(t, rt, c)
		wantSet(5, 0b011, 3, 3, 2)
		rt.Lock()
		clear(fg.mute)
		rt.Unlock()
		invokeTimed(t, rt, c)
		wantSet(6, 0b110, 0, 1, 1)
	})
}

// TestRetransmissionGoesToEveryMember: whatever was lost — the one copy,
// its Ordered, the replies — a retransmission reaches all members.
func TestRetransmissionGoesToEveryMember(t *testing.T) {
	rt, fg, _, c := contactHarness(t, false)
	vtime.Run(rt, "main", func() {
		defer fg.close()
		defer c.Close()
		invokeTimed(t, rt, c)
		rt.Lock()
		for _, id := range fg.ids {
			fg.mute[id] = true // the group takes the request in and stays silent
		}
		rt.Unlock()
		rt.Go("unmute", func() {
			rt.Sleep(30 * time.Millisecond)
			rt.Lock()
			clear(fg.mute)
			rt.Unlock()
		})
		if took := invokeTimed(t, rt, c); took < 40*time.Millisecond {
			t.Errorf("call completed after %v, before its second retransmission", took)
		}
		wantCopies(t, fg, 2, 3, 2, 2)
	})
}

// TestDeadContactCostsOneRetransmitOnce: with rank 0 gone the one copy is
// lost and the retransmission to everyone completes the call; the contact
// moves to the lowest-ranked member that answered, so the next call pays
// nothing. Registering the group again forgets all of it.
func TestDeadContactCostsOneRetransmitOnce(t *testing.T) {
	rt, fg, dir, c := contactHarness(t, false)
	vtime.Run(rt, "main", func() {
		defer fg.close()
		defer c.Close()
		invokeTimed(t, rt, c)
		fg.net.Crash(fg.ids[0])
		if took := invokeTimed(t, rt, c); took < 20*time.Millisecond || took >= 40*time.Millisecond {
			t.Errorf("call to a dead contact took %v, want one retransmit interval (20ms)", took)
		}
		wantCopies(t, fg, 2, 0, 1, 1)
		if took := invokeTimed(t, rt, c); took >= 20*time.Millisecond {
			t.Errorf("call after the contact moved took %v, want no retransmission", took)
		}
		wantCopies(t, fg, 3, 0, 1, 0)

		fg.net.Restore(fg.ids[0])
		dir.Add("g", fg.ids, false)
		invokeTimed(t, rt, c)
		wantCopies(t, fg, 4, 1, 1, 1) // introduced again
		invokeTimed(t, rt, c)
		wantCopies(t, fg, 5, 1, 0, 0) // contact back at rank 0
	})
}
