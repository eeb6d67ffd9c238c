package gcs

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/replobj/replobj/internal/transport"
	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

type appMsg struct {
	Body string
}

func init() { wire.RegisterPayload(appMsg{}) }

// harness wires n members of one group over an in-process network.
type harness struct {
	rt      *vtime.VirtualRuntime
	net     *transport.Inproc
	group   wire.GroupID
	ids     []wire.NodeID
	members []*Member
	eps     []transport.Endpoint
}

func newHarness(n int, fd bool) *harness {
	return newHarnessCfg(n, fd, nil)
}

// newHarnessCfg is newHarness with a per-member Config hook (applied before
// defaulting, so explicit values stick).
func newHarnessCfg(n int, fd bool, mutate func(*Config)) *harness {
	rt := vtime.Virtual()
	net := transport.NewInproc(rt)
	h := &harness{rt: rt, net: net, group: "g"}
	for i := 0; i < n; i++ {
		h.ids = append(h.ids, wire.ReplicaID(h.group, i))
	}
	for i := 0; i < n; i++ {
		ep := net.Endpoint(h.ids[i])
		cfg := Config{
			Group:            h.group,
			Self:             h.ids[i],
			Members:          h.ids,
			Send:             ep.Send,
			FailureDetection: fd,
		}
		if mutate != nil {
			mutate(&cfg)
		}
		m := NewMember(rt, cfg)
		h.members = append(h.members, m)
		h.eps = append(h.eps, ep)
		rt.Go("recv/"+string(h.ids[i]), func() {
			for {
				msg, ok := ep.Recv()
				if !ok {
					return
				}
				m.Handle(msg.From, msg.Payload)
			}
		})
		m.Start()
	}
	return h
}

// run executes fn on a tracked goroutine, then tears the group down from
// inside the simulation so every recv loop exits before the kernel reaches
// quiescence (the virtual kernel treats leaked parked goroutines with no
// pending timers as a deadlock).
func (h *harness) run(fn func()) {
	vtime.Run(h.rt, "main", func() {
		fn()
		for i, m := range h.members {
			m.Stop()
			h.eps[i].Close()
		}
	})
	h.rt.Stop()
}

// submitFromClient mimics a client's first request to the group, or a
// retransmission: it sends the Submit to every member.
func (h *harness) submitFromClient(cl transport.Endpoint, id, body string) {
	sub := Submit{Group: h.group, ID: id, Origin: cl.ID(), Payload: appMsg{Body: body}}
	for _, m := range h.ids {
		cl.Send(m, sub)
	}
}

// submitCall is submitFromClient for a client's numbered call.
func (h *harness) submitCall(cl transport.Endpoint, call uint64, body string) {
	sub := Submit{Group: h.group, Origin: cl.ID(), Call: call, Payload: appMsg{Body: body}}
	for _, m := range h.ids {
		cl.Send(m, sub)
	}
}

// take reads n app deliveries (skipping view events) from a member, failing
// the test on timeout. It must run on a tracked goroutine.
func take(t *testing.T, rt vtime.Runtime, m *Member, n int) []Delivery {
	t.Helper()
	out := make([]Delivery, 0, n)
	for len(out) < n {
		d, ok, timedOut := m.DeliverTimeout(5 * time.Second)
		if timedOut {
			t.Fatalf("timed out after %d/%d deliveries", len(out), n)
		}
		if !ok {
			t.Fatalf("delivery stream closed after %d/%d", len(out), n)
		}
		if d.NewView != nil || d.Payload == nil {
			continue
		}
		out = append(out, d)
	}
	return out
}

// ids names each delivery (see key.name).
func ids(ds []Delivery) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = idKey(d.ID, d.Origin, d.Call).name()
	}
	return out
}

// name is a named id's name, or "<origin>#<call>" for a numbered one.
func (k key) name() string {
	if k.call != 0 {
		return fmt.Sprintf("%s#%d", k.origin, k.call)
	}
	return k.id
}

func TestTotalOrderBasic(t *testing.T) {
	h := newHarness(3, false)
	h.run(func() {
		cl := h.net.Endpoint(wire.ClientID("c1"))
		defer cl.Close()
		const n = 20
		for i := 0; i < n; i++ {
			h.submitFromClient(cl, fmt.Sprintf("m%02d", i), "x")
		}
		var streams [][]string
		for _, m := range h.members {
			streams = append(streams, ids(take(t, h.rt, m, n)))
		}
		for i := 1; i < len(streams); i++ {
			if !reflect.DeepEqual(streams[0], streams[i]) {
				t.Errorf("member %d delivered %v, member 0 delivered %v", i, streams[i], streams[0])
			}
		}
		if len(streams[0]) != n {
			t.Errorf("delivered %d messages, want %d", len(streams[0]), n)
		}
	})
}

func TestDuplicateSubmitsDeliveredOnce(t *testing.T) {
	h := newHarness(3, false)
	h.run(func() {
		cl := h.net.Endpoint(wire.ClientID("c1"))
		defer cl.Close()
		for i := 0; i < 3; i++ {
			h.submitFromClient(cl, "dup", "x") // retransmissions
		}
		h.submitFromClient(cl, "tail", "x")
		got := ids(take(t, h.rt, h.members[2], 2))
		want := []string{"dup", "tail"}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("delivered %v, want %v", got, want)
		}
	})
}

func TestMemberBroadcast(t *testing.T) {
	h := newHarness(3, false)
	h.run(func() {
		// Broadcast from a follower must reach everyone in order.
		h.members[2].Broadcast("from-follower", appMsg{Body: "f"})
		h.members[0].Broadcast("from-sequencer", appMsg{Body: "s"})
		for i, m := range h.members {
			got := ids(take(t, h.rt, m, 2))
			if len(got) != 2 {
				t.Fatalf("member %d: got %v", i, got)
			}
		}
	})
}

func TestSameOrderAcrossMembersUnderConcurrency(t *testing.T) {
	h := newHarness(3, false)
	h.run(func() {
		cl1 := h.net.Endpoint(wire.ClientID("c1"))
		cl2 := h.net.Endpoint(wire.ClientID("c2"))
		defer cl1.Close()
		defer cl2.Close()
		const n = 15
		for i := 0; i < n; i++ {
			h.submitFromClient(cl1, fmt.Sprintf("a%02d", i), "a")
			h.submitFromClient(cl2, fmt.Sprintf("b%02d", i), "b")
			h.members[1].Broadcast(fmt.Sprintf("c%02d", i), appMsg{Body: "c"})
		}
		ref := ids(take(t, h.rt, h.members[0], 3*n))
		for i := 1; i < 3; i++ {
			got := ids(take(t, h.rt, h.members[i], 3*n))
			if !reflect.DeepEqual(ref, got) {
				t.Errorf("member %d order differs:\n  m0: %v\n  m%d: %v", i, ref, i, got)
			}
		}
	})
}

func TestNackRecoversDroppedOrdereds(t *testing.T) {
	h := newHarness(3, false)
	h.run(func() {
		cl := h.net.Endpoint(wire.ClientID("c1"))
		defer cl.Close()
		victim := h.ids[2]
		seqr := h.ids[0]
		// Drop all sequencer→victim traffic for a while.
		h.net.SetDropRule(func(from, to wire.NodeID) bool {
			return from == seqr && to == victim
		})
		for i := 0; i < 5; i++ {
			h.submitFromClient(cl, fmt.Sprintf("lost%d", i), "x")
		}
		h.rt.Sleep(20 * time.Millisecond)
		h.net.SetDropRule(nil)
		// The next ordered message creates a gap at the victim, which NACKs.
		h.submitFromClient(cl, "trigger", "x")
		got := ids(take(t, h.rt, h.members[2], 6))
		want := []string{"lost0", "lost1", "lost2", "lost3", "lost4", "trigger"}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("victim delivered %v, want %v", got, want)
		}
	})
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() []string {
		h := newHarness(3, false)
		var got []string
		h.run(func() {
			cl := h.net.Endpoint(wire.ClientID("c1"))
			defer cl.Close()
			for i := 0; i < 10; i++ {
				h.submitFromClient(cl, fmt.Sprintf("m%d", i), "x")
			}
			got = ids(take(t, h.rt, h.members[1], 10))
		})
		return got
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two identical runs delivered different orders:\n  %v\n  %v", a, b)
	}
}
