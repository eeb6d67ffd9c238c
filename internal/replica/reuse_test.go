package replica

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"github.com/replobj/replobj/internal/adets/mat"
	"github.com/replobj/replobj/internal/faultnet"
	"github.com/replobj/replobj/internal/gcs"
	"github.com/replobj/replobj/internal/transport"
	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

// reuseState has an empty image.
type reuseState struct{}

func (*reuseState) Snapshot() ([]byte, error) { return nil, nil }
func (*reuseState) Restore([]byte) error      { return nil }

// reuseID is the id of the seq-th call of client n's first request.
func reuseID(n int, seq uint64) wire.InvocationID {
	return wire.InvocationID{Logical: wire.LogicalID(fmt.Sprintf("client/t#%d", n)), Seq: seq}
}

// clientRequest is client n's first request.
func (p *reuseReplica) clientRequest(n int, method, args string) Request {
	return Request{ID: reuseID(n, 0), Group: "g", Method: method, Args: []byte(args), Kind: KindClient, ReplyTo: p.cl.ID()}
}

// reuseReplica is a replica g/0 under ADETS-MAT on the virtual runtime. Its
// handlers note what their Invocation reads: "echo" at once, "wait" after
// the gate opens, "nest" after a nested call to group o (whose only member
// is the endpoint o), "gated-nest" after the gate and then that call. cl
// plays the clients.
type reuseReplica struct {
	rt    vtime.Runtime
	r     *Replica
	gate  *vtime.Mailbox[struct{}]
	o, cl transport.Endpoint
	seen  []string
}

func newReuseReplica() *reuseReplica {
	rt := vtime.Virtual()
	return newReuseReplicaOn(rt, transport.NewInproc(rt))
}

// newReuseReplicaOn is newReuseReplica on a network of the caller's, which
// knows the nodes g/0, o/0 and client/t.
func newReuseReplicaOn(rt vtime.Runtime, net transport.Network) *reuseReplica {
	dir := NewDirectory()
	dir.Add("g", []wire.NodeID{"g/0"})
	dir.Add("o", []wire.NodeID{"o/0"})
	p := &reuseReplica{rt: rt, gate: vtime.NewMailbox[struct{}](rt, "gate"),
		o: net.Endpoint("o/0"), cl: net.Endpoint(wire.ClientID("t"))}
	p.r = New(Config{RT: rt, Group: "g", Self: "g/0", Directory: dir, Network: net, Scheduler: mat.New(),
		State: func() any { return new(reuseState) }})
	note := func(inv *Invocation) ([]byte, error) {
		rt.Lock()
		p.seen = append(p.seen, fmt.Sprintf("%s %s %s", inv.Method(), inv.req.ID, inv.Args()))
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
			msg.Payload = sub.Payload // a nested reply
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
// callback deferred behind its originator, a nested call, and a snapshot
// install while a request executes.
func TestDispatchRecordReuse(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, p *reuseReplica) (seen, want []string)
	}{
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
				return p.seen[4:], []string{"echo client/t#1#7 callback", "gated-nest client/t#1#0 a"}
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
				return p.seen[4:], []string{"nest client/t#1#0 a"}
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
				return p.seen[4:], []string{"wait client/t#1#0 a"}
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

// TestReplyCellReuse: a client reply goes out from a pooled cell, which
// sendReply zeroes and puts back as soon as Send has returned, and the next
// reply takes it again. Every copy a client receives — a delayed or
// duplicated one included — is the reply it was sent: over TCP, over
// Inproc, and through faultnet.
func TestReplyCellReuse(t *testing.T) {
	const n = 8
	lo := "127.0.0.1:0"
	for _, nc := range []struct {
		name string
		open func() (vtime.Runtime, transport.Network)
	}{
		{"tcp", func() (vtime.Runtime, transport.Network) {
			rt := vtime.Real()
			return rt, transport.NewTCP(rt, map[wire.NodeID]string{"g/0": lo, "o/0": lo, wire.ClientID("t"): lo})
		}},
		{"inproc", func() (vtime.Runtime, transport.Network) {
			rt := vtime.Virtual()
			return rt, transport.NewInproc(rt)
		}},
		{"faultnet delay and duplicate", func() (vtime.Runtime, transport.Network) {
			rt := vtime.Virtual()
			prof := faultnet.Profile{Name: "reuse", DupPerMill: 500, DelayPerMill: 500}
			return rt, faultnet.New(rt, transport.NewInproc(rt), prof, 1)
		}},
	} {
		t.Run(nc.name, func(t *testing.T) {
			p := newReuseReplicaOn(nc.open())
			defer p.rt.Stop()
			vtime.Run(p.rt, "main", func() {
				defer p.r.Stop()
				defer p.cl.Close()
				defer p.o.Close()
				sent := map[string]bool{}
				for i := range n {
					req := p.clientRequest(200+i, "echo", fmt.Sprintf("reply-%d", i))
					sent[fmt.Sprintf("%s %s", req.ID, req.Args)] = true
					p.r.dispatchRequest(req, uint64(i+1))
				}
				got := map[string]bool{}
				for len(got) < n {
					rep := p.replies(t, p.cl, 1)
					if len(rep) == 0 {
						return // replies reported the timeout
					}
					if !sent[rep[0]] {
						t.Errorf("the client read %q, which no reply was: the cell was read after Send returned", rep[0])
					}
					got[rep[0]] = true
				}
			})
		})
	}
}
