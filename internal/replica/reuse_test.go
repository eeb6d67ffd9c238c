package replica

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"github.com/replobj/replobj/internal/adets/mat"
	"github.com/replobj/replobj/internal/gcs"
	"github.com/replobj/replobj/internal/transport"
	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

// heldGo is a runtime that holds the goroutines started under one name
// until release: what the test does in between happens before they run,
// every time.
type heldGo struct {
	vtime.Runtime
	name    string
	waiting []func()
}

func (h *heldGo) Go(name string, fn func()) {
	if name != h.name {
		h.Runtime.Go(name, fn)
		return
	}
	h.Lock()
	h.waiting = append(h.waiting, fn)
	h.Unlock()
}

func (h *heldGo) release() {
	h.Lock()
	fns := h.waiting
	h.waiting = nil
	h.Unlock()
	for _, fn := range fns {
		h.Runtime.Go(h.name, fn)
	}
}

// reuseState is one conflict class, "k", and an empty image. It is not
// empty itself, so that every instance has an address of its own.
type reuseState struct{ _ int }

func (*reuseState) Snapshot() ([]byte, error)               { return nil, nil }
func (*reuseState) Restore([]byte) error                    { return nil }
func (*reuseState) ConflictClasses(string, []byte) []string { return []string{"k"} }

// reuseID is the id of the seq-th call of client n's first request.
func reuseID(n int, seq uint64) wire.InvocationID {
	return wire.InvocationID{Logical: wire.LogicalID(fmt.Sprintf("client/t#%d", n)), Seq: seq}
}

// clientRequest is client n's first request.
func (p *reuseReplica) clientRequest(n int, method, args string) Request {
	return Request{ID: reuseID(n, 0), Group: "g", Method: method, Args: []byte(args), Kind: KindClient, ReplyTo: p.cl.ID()}
}

// reuseReplica is a speculating replica g/0 under ADETS-MAT on the virtual
// runtime, whose speculation catch-ups wait until the test releases them.
// Its handlers note what their Invocation reads, on the primary state or a
// fork: "echo" at once, "wait" after the gate opens, "nest" after a nested
// call to group o (whose only member is the endpoint o), "gated-nest" after
// the gate and then that call. cl plays the clients.
type reuseReplica struct {
	rt    *vtime.VirtualRuntime
	held  *heldGo
	r     *Replica
	gate  *vtime.Mailbox[struct{}]
	o, cl transport.Endpoint
	seen  []string
}

func newReuseReplica() *reuseReplica {
	rt := vtime.Virtual()
	net := transport.NewInproc(rt)
	dir := NewDirectory()
	dir.Add("g", []wire.NodeID{"g/0"}, true)
	dir.Add("o", []wire.NodeID{"o/0"}, false)
	p := &reuseReplica{rt: rt, held: &heldGo{Runtime: rt, name: "spec-catchup"}, gate: vtime.NewMailbox[struct{}](rt, "gate"),
		o: net.Endpoint("o/0"), cl: net.Endpoint(wire.ClientID("t"))}
	p.r = New(Config{RT: p.held, Group: "g", Self: "g/0", Directory: dir, Network: net, Scheduler: mat.New(),
		State: func() any { return new(reuseState) }, Speculative: true})
	note := func(inv *Invocation) ([]byte, error) {
		where := "fork"
		if inv.State() == p.r.state {
			where = "primary"
		}
		rt.Lock()
		p.seen = append(p.seen, fmt.Sprintf("%s %s %s %s", where, inv.Method(), inv.req.ID, inv.Args()))
		rt.Unlock()
		return inv.Args(), nil
	}
	nested := func(inv *Invocation) ([]byte, error) {
		if _, err := inv.Invoke("o", "m", nil); err != nil {
			return nil, err
		}
		return note(inv)
	}
	p.r.Register("echo", note)
	p.r.Register("wait", func(inv *Invocation) ([]byte, error) {
		p.gate.Get()
		return note(inv)
	})
	p.r.Register("nest", nested)
	p.r.Register("gated-nest", func(inv *Invocation) ([]byte, error) {
		p.gate.Get()
		return nested(inv)
	})
	p.r.Start()
	return p
}

// settle lets everything runnable run.
func (p *reuseReplica) settle() { p.rt.Sleep(time.Millisecond) }

// churn dispatches n echo requests of fresh logical threads at seq, seq+1,
// … and waits for their replies: records are released and taken again
// meanwhile.
func (p *reuseReplica) churn(t *testing.T, seq uint64, n int) {
	var want []string
	for i := range n {
		req := p.clientRequest(100+int(seq)+i, "echo", fmt.Sprintf("churn-%d", i))
		want = append(want, fmt.Sprintf("%s %s", req.ID, req.Args))
		p.r.dispatchRequest(req, seq+uint64(i))
	}
	if got := p.replies(t, p.cl, n); !slices.Equal(got, want) {
		t.Errorf("churn replies %q, want %q", got, want)
	}
}

// replies returns the next n replies ep receives, as "id result".
func (p *reuseReplica) replies(t *testing.T, ep transport.Endpoint, n int) []string {
	t.Helper()
	var got []string
	for len(got) < n {
		msg, ok := recvOne(p.rt, ep, 5*time.Second)
		if !ok {
			t.Errorf("%s: %d replies, want %d", ep.ID(), len(got), n)
			return got
		}
		if sub, ok := msg.Payload.(*gcs.Submit); ok {
			if rep, ok := sub.Payload.(Reply); ok { // a nested reply, a value
				msg.Payload = &rep
			}
		}
		if rep, ok := msg.Payload.(*Reply); ok {
			got = append(got, fmt.Sprintf("%s %s", rep.ID, rep.Result))
		}
	}
	return got
}

// TestDispatchRecordReuse: every path that acts on a request after its
// dispatch, or across other requests' executions, acts on the request it
// was given while records are released and taken again in between — a
// speculation catch-up, a callback deferred behind its originator, a
// nested call, and a snapshot install while a request executes.
func TestDispatchRecordReuse(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, p *reuseReplica) (seen, want []string)
	}{
		{
			name: "a catch-up runs the request it was started for after its record carries the next",
			run: func(t *testing.T, p *reuseReplica) (seen, want []string) {
				a, b, c := p.clientRequest(1, "echo", "a"), p.clientRequest(2, "echo", "b"), p.clientRequest(3, "wait", "c")
				p.r.onOptimisticSubmit(gcs.Submit{Group: "g", Origin: p.cl.ID(), Payload: a})
				p.settle()
				p.r.dispatchRequest(a, 1) // a hit: the fork now holds "k" at 1
				p.replies(t, p.cl, 1)
				p.settle()
				p.r.dispatchRequest(b, 2) // a miss the fork can catch up on
				p.replies(t, p.cl, 1)
				p.r.dispatchRequest(c, 3) // takes b's record and waits
				p.settle()
				p.rt.Lock()
				held := len(p.held.waiting)
				p.rt.Unlock()
				if held != 1 {
					t.Fatalf("%d catch-ups held, want 1", held)
				}
				p.held.release()
				p.settle()
				p.gate.Put(struct{}{})
				if got := p.replies(t, p.cl, 1); !slices.Equal(got, []string{reuseID(3, 0).String() + " c"}) {
					t.Errorf("c replied %q", got)
				}
				return p.seen, []string{
					"fork echo client/t#1#0 a",
					"primary echo client/t#1#0 a",
					"primary echo client/t#2#0 b",
					"fork echo client/t#2#0 b",
					"primary wait client/t#3#0 c",
				}
			},
		},
		{
			name: "a deferred callback runs as dispatched after other requests took and released records",
			run: func(t *testing.T, p *reuseReplica) (seen, want []string) {
				p.r.dispatchRequest(p.clientRequest(1, "gated-nest", "a"), 1)
				cb := Request{ID: reuseID(1, 7), Group: "g", Method: "echo", Args: []byte("callback"), Kind: KindNested, Origin: "o"}
				p.r.dispatchRequest(cb, 2) // deferred: the originator waits at the gate
				p.churn(t, 3, 4)
				p.gate.Put(struct{}{}) // the originator calls o and flushes the callback
				// o gets the call, then the callback's reply.
				if got := p.replies(t, p.o, 1); !slices.Equal(got, []string{"client/t#1#7 callback"}) {
					t.Errorf("callback replied %q", got)
				}
				p.r.dispatchNestedReply(Reply{ID: reuseID(1, 1), From: "o/0"})
				if got := p.replies(t, p.cl, 1); !slices.Equal(got, []string{"client/t#1#0 a"}) {
					t.Errorf("originator replied %q", got)
				}
				return p.seen[4:], []string{"primary echo client/t#1#7 callback", "primary gated-nest client/t#1#0 a"}
			},
		},
		{
			name: "a nested call resumes on its own request after other requests took and released records",
			run: func(t *testing.T, p *reuseReplica) (seen, want []string) {
				p.r.dispatchRequest(p.clientRequest(1, "nest", "a"), 1)
				p.settle()
				p.churn(t, 2, 4)
				p.r.dispatchNestedReply(Reply{ID: reuseID(1, 1), From: "o/0"})
				if got := p.replies(t, p.cl, 1); !slices.Equal(got, []string{"client/t#1#0 a"}) {
					t.Errorf("caller replied %q", got)
				}
				return p.seen[4:], []string{"primary nest client/t#1#0 a"}
			},
		},
		{
			name: "a request executing across a snapshot install completes as dispatched",
			run: func(t *testing.T, p *reuseReplica) (seen, want []string) {
				p.r.dispatchRequest(p.clientRequest(1, "wait", "a"), 1)
				p.settle()
				env := snapshotEnvelope{Seq: 5}
				p.r.installSnapshot(gcs.Delivery{Seq: 5, Snapshot: env.encode(nil)})
				p.churn(t, 6, 4)
				p.gate.Put(struct{}{})
				if got := p.replies(t, p.cl, 1); !slices.Equal(got, []string{"client/t#1#0 a"}) {
					t.Errorf("a replied %q", got)
				}
				return p.seen[4:], []string{"primary wait client/t#1#0 a"}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := newReuseReplica()
			defer p.rt.Stop()
			vtime.Run(p.rt, "main", func() {
				defer p.r.Stop()
				defer p.cl.Close()
				defer p.o.Close()
				if seen, want := tc.run(t, p); !slices.Equal(seen, want) {
					t.Errorf("handlers read\n %q\nwant\n %q", seen, want)
				}
			})
		})
	}
}
