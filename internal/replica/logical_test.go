package replica

import (
	"testing"
	"time"

	"github.com/replobj/replobj/internal/adets"
	"github.com/replobj/replobj/internal/adets/sat"
	"github.com/replobj/replobj/internal/gcs"
	"github.com/replobj/replobj/internal/transport"
	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

// protoReplica is replica g/0 on the virtual runtime. Its "nest" handler
// waits at gate, then makes one nested call to group o, whose only member is
// the endpoint o; cl plays the client.
type protoReplica struct {
	rt   *vtime.VirtualRuntime
	r    *Replica
	gate *vtime.Mailbox[struct{}]
	o    transport.Endpoint
	cl   transport.Endpoint
}

func newProtoReplica() *protoReplica {
	rt := vtime.Virtual()
	net := transport.NewInproc(rt)
	dir := NewDirectory()
	dir.Add("g", []wire.NodeID{"g/0"}, false)
	dir.Add("o", []wire.NodeID{"o/0"}, false)
	p := &protoReplica{rt: rt, gate: vtime.NewMailbox[struct{}](rt, "gate"), o: net.Endpoint("o/0"), cl: net.Endpoint(wire.ClientID("t"))}
	p.r = New(Config{RT: rt, Group: "g", Self: "g/0", Directory: dir, Network: net, Scheduler: sat.New()})
	p.r.Register("nest", func(inv *Invocation) ([]byte, error) {
		p.gate.Get()
		return inv.Invoke("o", "m", nil)
	})
	p.r.Start()
	return p
}

const protoLogical = wire.LogicalID("client/t#1")

// call is the id of the n-th nested call of the logical thread's request.
func call(n uint64) wire.InvocationID { return wire.InvocationID{Logical: protoLogical, Seq: n} }

// request is a dispatched request of the logical thread, ordered at seq.
func (p *protoReplica) request(id, seq uint64) *dispatched {
	return &dispatched{inv: Invocation{r: p.r, req: Request{ID: wire.InvocationID{Logical: protoLogical, Seq: id}}}, seq: seq}
}

// nest dispatches the client request whose handler makes call(1).
func (p *protoReplica) nest() {
	p.r.dispatchRequest(Request{ID: call(0), Group: "g", Method: "nest", Kind: KindClient, ReplyTo: p.cl.ID()}, 1)
}

func (p *protoReplica) locked(f func(threads map[wire.LogicalID]logicalThread)) {
	p.rt.Lock()
	defer p.rt.Unlock()
	f(p.r.threads)
}

// recv returns the next payload ep receives (nil, an error reported, if
// none does). The cases run on a tracked goroutine, not the test's: they
// report with t.Error and carry on.
func (p *protoReplica) recv(t *testing.T, ep transport.Endpoint) any {
	t.Helper()
	msg, ok := recvOne(p.rt, ep, 5*time.Second)
	if !ok {
		t.Errorf("%s: nothing arrived", ep.ID())
	}
	return msg.Payload
}

// TestLogicalThreadProtocol: the five transitions of the logical-thread
// record (logical.go), one case per pre- and postcondition. The cases that
// need a real Invoke run the "nest" handler; the others call the
// transitions under the runtime lock, as admit, complete, Invoke and the
// ordered reply do.
func TestLogicalThreadProtocol(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, p *protoReplica)
	}{
		{
			name: "pre: no record; post: the first request of a logical thread is no callback, and its record is created",
			run: func(t *testing.T, p *protoReplica) {
				p.locked(func(threads map[wire.LogicalID]logicalThread) {
					callback, deferred := p.r.arriveLocked(p.request(0, 1))
					if callback || deferred || threads[protoLogical].live != 1 {
						t.Errorf("callback %v deferred %v, record %+v", callback, deferred, threads[protoLogical])
					}
				})
			},
		},
		{
			name: "pre: the logical thread is live and its originator inside Invoke; post: a request of it is a callback that runs at once",
			run: func(t *testing.T, p *protoReplica) {
				p.locked(func(threads map[wire.LogicalID]logicalThread) {
					p.r.arriveLocked(p.request(0, 1))
					p.r.enterNestedLocked(call(1), nil)
					cb := p.request(1001, 2)
					if callback, deferred := p.r.arriveLocked(cb); !callback || deferred || cb.seq != 2 {
						t.Errorf("callback %v deferred %v seq %d", callback, deferred, cb.seq)
					}
				})
			},
		},
		{
			name: "pre: the logical thread is live, its originator not yet inside Invoke; post: callbacks are deferred with seq 0, and enterNested flushes them in arrival order",
			run: func(t *testing.T, p *protoReplica) {
				p.locked(func(threads map[wire.LogicalID]logicalThread) {
					p.r.arriveLocked(p.request(0, 1))
					a, b := p.request(1001, 2), p.request(1002, 3)
					for _, d := range []*dispatched{a, b} {
						if callback, deferred := p.r.arriveLocked(d); !callback || !deferred || d.seq != 0 {
							t.Errorf("callback %v deferred %v seq %d", callback, deferred, d.seq)
						}
					}
					flush, early := p.r.enterNestedLocked(call(1), nil)
					if len(flush) != 2 || flush[0] != a || flush[1] != b || early != nil || threads[protoLogical].deferred != nil {
						t.Errorf("flushed %v (early %v), record %+v", flush, early, threads[protoLogical])
					}
				})
			},
		},
		{
			name: "pre: the reply reaches the order before its call; post: it is kept as early, enterNested consumes it, BeginNested returns at once and nothing is sent",
			run: func(t *testing.T, p *protoReplica) {
				p.nest() // the handler waits at the gate
				p.r.dispatchNestedReply(Reply{ID: call(1), From: "o/0", Result: []byte("early")})
				p.locked(func(threads map[wire.LogicalID]logicalThread) {
					if c := threads[protoLogical].calls; len(c) != 1 || c[0].reply == nil || c[0].thread != nil {
						t.Errorf("calls after the early reply: %+v", c)
					}
				})
				p.gate.Put(struct{}{})
				if rep, _ := p.recv(t, p.cl).(Reply); string(rep.Result) != "early" {
					t.Errorf("client reply %+v", rep)
				}
				if msg, ok := recvOne(p.rt, p.o, time.Second); ok {
					t.Errorf("the call was sent although its reply was in: %+v", msg.Payload)
				}
			},
		},
		{
			name: "pre: the thread waits inside Invoke; post: the ordered reply resumes it",
			run: func(t *testing.T, p *protoReplica) {
				p.gate.Put(struct{}{})
				p.nest()
				sub, _ := p.recv(t, p.o).(gcs.Submit)
				if q, _ := sub.Payload.(Request); q.ID != call(1) || q.Kind != KindNested || q.Origin != "g" {
					t.Errorf("nested request %+v", q)
				}
				p.locked(func(threads map[wire.LogicalID]logicalThread) {
					if th := threads[protoLogical]; th.nesting != 1 || len(th.calls) != 1 || th.calls[0].thread == nil || th.calls[0].reply != nil {
						t.Errorf("record while waiting: %+v", th)
					}
				})
				p.r.dispatchNestedReply(Reply{ID: call(1), From: "o/0", Result: []byte("answer")})
				if rep, _ := p.recv(t, p.cl).(Reply); string(rep.Result) != "answer" {
					t.Errorf("client reply %+v", rep)
				}
			},
		},
		{
			name: "pre: the thread waits and its reply is delivered; post: a second copy resumes nothing and is dropped",
			run: func(t *testing.T, p *protoReplica) {
				waiter := adets.NewRegistry(p.rt).Init(new(adets.Thread), "t", protoLogical, nil)
				p.locked(func(threads map[wire.LogicalID]logicalThread) {
					p.r.arriveLocked(p.request(0, 1))
					p.r.enterNestedLocked(call(1), waiter)
					first := p.r.deliverReplyLocked(Reply{ID: call(1), Result: []byte("first")})
					second := p.r.deliverReplyLocked(Reply{ID: call(1), Result: []byte("second")})
					if c := threads[protoLogical].calls; first != waiter || second != nil || len(c) != 1 || string(c[0].reply.Result) != "first" {
						t.Errorf("resumed %v then %v, calls %+v", first, second, c)
					}
				})
			},
		},
		{
			name: "pre: every request of the logical thread completed; post: a reply for it finds no record and nothing is kept",
			run: func(t *testing.T, p *protoReplica) {
				p.locked(func(threads map[wire.LogicalID]logicalThread) {
					d := p.request(0, 1)
					p.r.arriveLocked(d)
					p.r.leaveLocked(&d.inv.req)
					if resumed := p.r.deliverReplyLocked(Reply{ID: call(1)}); resumed != nil || len(threads) != 0 {
						t.Errorf("resumed %v, records %+v", resumed, threads)
					}
				})
			},
		},
		{
			name: "pre: two requests of the logical thread live; post: the first leave keeps the record, the last deletes it",
			run: func(t *testing.T, p *protoReplica) {
				p.locked(func(threads map[wire.LogicalID]logicalThread) {
					a, b := p.request(0, 1), p.request(1001, 2)
					p.r.arriveLocked(a)
					p.r.arriveLocked(b)
					p.r.leaveLocked(&a.inv.req)
					if th, ok := threads[protoLogical]; !ok || th.live != 1 {
						t.Errorf("after the first leave: %+v (present %v)", th, ok)
					}
					p.r.leaveLocked(&b.inv.req)
					if len(threads) != 0 {
						t.Errorf("after the last leave: %+v", threads)
					}
				})
			},
		},
		{
			name: "pre: records live, one holding an early reply; post: a snapshot install leaves no record",
			run: func(t *testing.T, p *protoReplica) {
				p.locked(func(map[wire.LogicalID]logicalThread) {
					p.r.arriveLocked(p.request(0, 1))
					p.r.deliverReplyLocked(Reply{ID: call(1)})
				})
				env := snapshotEnvelope{Seq: 5}
				p.r.installSnapshot(gcs.Delivery{Seq: 5, Snapshot: env.encode(nil)})
				p.locked(func(threads map[wire.LogicalID]logicalThread) {
					if len(threads) != 0 {
						t.Errorf("records after the install: %+v", threads)
					}
				})
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := newProtoReplica()
			defer p.rt.Stop()
			vtime.Run(p.rt, "main", func() {
				defer p.r.Stop()
				defer p.cl.Close()
				defer p.o.Close()
				tc.run(t, p)
			})
		})
	}
}
