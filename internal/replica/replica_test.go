package replica

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"github.com/replobj/replobj/internal/adets/sat"
	"github.com/replobj/replobj/internal/gcs"
	"github.com/replobj/replobj/internal/obs"
	"github.com/replobj/replobj/internal/transport"
	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

func TestDirectoryBasics(t *testing.T) {
	d := NewDirectory()
	if got := d.Members("ghost"); len(got) != 0 {
		t.Errorf("Members(ghost) = %v", got)
	}
	d.Add("a", []wire.NodeID{"a/0", "a/1"})
	d.Add("b", []wire.NodeID{"b/0"})
	got := d.Members("a")
	if !reflect.DeepEqual(got, []wire.NodeID{"a/0", "a/1"}) {
		t.Errorf("Members(a) = %v", got)
	}
	got[0] = "mutated" // callers must not alias internal storage
	if d.Members("a")[0] != "a/0" {
		t.Error("Members aliases internal storage")
	}
	if b := d.Group("b"); b == nil || !reflect.DeepEqual(b.Members, []wire.NodeID{"b/0"}) {
		t.Errorf("Group(b) = %+v", b)
	}
	before := d.Group("a")
	d.Add("a", []wire.NodeID{"a/0"}) // replacement
	if n := len(d.Members("a")); n != 1 {
		t.Errorf("after replacement: %d members", n)
	}
	// An entry is replaced, never edited: holders of the old one see what
	// they saw, and learn of the change by comparing pointers.
	after := d.Group("a")
	if after == before || len(before.Members) != 2 || len(after.Members) != 1 {
		t.Errorf("replacement edited the published entry: before %+v, after %+v", before, after)
	}
	if d.Group("ghost") != nil {
		t.Error("Group(ghost) is not nil")
	}
}

func TestQuickDirectoryConcurrentSafety(t *testing.T) {
	// Concurrent Add/Members must never race or corrupt (run with -race).
	f := func(names []string) bool {
		d := NewDirectory()
		done := make(chan struct{})
		go func() {
			defer close(done)
			for _, n := range names {
				d.Add(wire.GroupID(n), []wire.NodeID{wire.NodeID(n)})
			}
		}()
		for _, n := range names {
			_ = d.Members(wire.GroupID(n))
			_ = d.Group(wire.GroupID(n))
		}
		<-done
		for _, n := range names {
			m := d.Members(wire.GroupID(n))
			if len(m) != 1 || m[0] != wire.NodeID(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// harness: one real replica wired to an in-process network, driven by raw
// gcs Submits from a test endpoint.
type oneReplica struct {
	rt  *vtime.VirtualRuntime
	net *transport.Inproc
	r   *Replica
	cl  transport.Endpoint
	dir *Directory
}

func newOneReplica(t *testing.T, execCount *int) *oneReplica {
	return newOneReplicaWithMetrics(t, execCount, nil)
}

func newOneReplicaWithMetrics(t *testing.T, execCount *int, reg *obs.Registry) *oneReplica {
	t.Helper()
	rt := vtime.Virtual()
	net := transport.NewInproc(rt)
	dir := NewDirectory()
	dir.Add("g", []wire.NodeID{wire.ReplicaID("g", 0)})
	r := New(Config{
		RT:        rt,
		Group:     "g",
		Self:      wire.ReplicaID("g", 0),
		Directory: dir,
		Network:   net,
		Scheduler: sat.New(),
		Metrics:   reg,
	})
	r.Register("echo", func(inv *Invocation) ([]byte, error) {
		rt.Lock()
		*execCount++
		rt.Unlock()
		return inv.Args(), nil
	})
	r.Register("fail", func(inv *Invocation) ([]byte, error) {
		return nil, fmt.Errorf("app error")
	})
	r.Start()
	return &oneReplica{rt: rt, net: net, r: r, cl: net.Endpoint(wire.ClientID("t")), dir: dir}
}

func (h *oneReplica) submit(id wire.InvocationID, method string, args []byte) {
	req := Request{ID: id, Group: "g", Method: method, Args: args, Kind: KindClient, ReplyTo: h.cl.ID()}
	h.cl.Send(wire.ReplicaID("g", 0), &gcs.Submit{Group: "g", ID: id.String(), Origin: h.cl.ID(), Payload: req})
}

func (h *oneReplica) recvReply(t *testing.T) Reply {
	t.Helper()
	for {
		msg, ok := recvOne(h.rt, h.cl, 5*time.Second)
		if !ok {
			t.Fatal("no reply")
		}
		if rep, ok := msg.Payload.(*Reply); ok {
			return *rep
		}
	}
}

func recvOne(rt vtime.Runtime, ep transport.Endpoint, d time.Duration) (wire.Message, bool) {
	res := vtime.NewMailbox[wire.Message](rt, "recvOne")
	stop := vtime.NewMailbox[struct{}](rt, "stop")
	rt.Go("recv", func() {
		m, ok := ep.Recv()
		if ok {
			res.Put(m)
		}
		stop.Put(struct{}{})
	})
	m, ok, _ := res.GetTimeout(d)
	return m, ok
}

func TestAtMostOnceDuplicateSubmits(t *testing.T) {
	execs := 0
	h := newOneReplica(t, &execs)
	defer h.rt.Stop()
	vtime.Run(h.rt, "main", func() {
		defer h.r.Stop()
		defer h.cl.Close()
		id := wire.InvocationID{Logical: "client/t#1", Seq: 0}
		req := Request{ID: id, Group: "g", Method: "echo", Args: []byte("x"),
			Kind: KindClient, ReplyTo: h.cl.ID()}
		// First delivery executes; a duplicate delivery (the group
		// communication layer already filters most, this is the adapter's
		// own at-most-once line of defense) answers from the reply cache.
		h.r.dispatchRequest(req, 1)
		rep := h.recvReply(t)
		if string(rep.Result) != "x" {
			t.Errorf("reply = %q", rep.Result)
		}
		h.r.dispatchRequest(req, 2)
		rep2 := h.recvReply(t)
		if string(rep2.Result) != "x" {
			t.Errorf("cached reply = %q", rep2.Result)
		}
		h.rt.Lock()
		n := execs
		h.rt.Unlock()
		if n != 1 {
			t.Errorf("handler executed %d times, want 1", n)
		}
	})
}

func TestUnknownMethodError(t *testing.T) {
	execs := 0
	h := newOneReplica(t, &execs)
	defer h.rt.Stop()
	vtime.Run(h.rt, "main", func() {
		defer h.r.Stop()
		defer h.cl.Close()
		h.submit(wire.InvocationID{Logical: "client/t#1"}, "nosuch", nil)
		rep := h.recvReply(t)
		if rep.Err == "" {
			t.Error("expected unknown-method error")
		}
	})
}

func TestHandlerErrorPropagates(t *testing.T) {
	execs := 0
	h := newOneReplica(t, &execs)
	defer h.rt.Stop()
	vtime.Run(h.rt, "main", func() {
		defer h.r.Stop()
		defer h.cl.Close()
		h.submit(wire.InvocationID{Logical: "client/t#1"}, "fail", nil)
		rep := h.recvReply(t)
		if rep.Err != "app error" {
			t.Errorf("Err = %q, want app error", rep.Err)
		}
	})
}

// TestUnknownDirectMessageIsCounted: a direct message neither the group
// member nor the scheduler claims is dropped, and the drop is visible.
func TestUnknownDirectMessageIsCounted(t *testing.T) {
	execs := 0
	reg := obs.NewRegistry()
	h := newOneReplicaWithMetrics(t, &execs, reg)
	defer h.rt.Stop()
	vtime.Run(h.rt, "main", func() {
		defer h.r.Stop()
		defer h.cl.Close()
		// A bare Reply is nothing a replica expects outside a gcs.Submit.
		h.cl.Send(wire.ReplicaID("g", 0), &Reply{ID: wire.InvocationID{Logical: "client/t#9"}})
		// The echo's reply is behind it in the replica's mailbox.
		h.submit(wire.InvocationID{Logical: "client/t#1"}, "echo", []byte("x"))
		h.recvReply(t)
		if got := reg.Counter(`replobj_replica_unknown_messages_total{node="g/0"}`).Value(); got != 1 {
			t.Errorf("unknown_messages_total = %d, want 1", got)
		}
	})
}

func TestSeenCacheBounded(t *testing.T) {
	execs := 0
	h := newOneReplica(t, &execs)
	defer h.rt.Stop()
	vtime.Run(h.rt, "main", func() {
		defer h.r.Stop()
		defer h.cl.Close()
		// Force far more ids, and far more clients, than the cap through
		// enterLocked directly.
		h.rt.Lock()
		for i := 0; i < maxSeen+100; i++ {
			id := wire.InvocationID{Logical: wire.LogicalID(fmt.Sprintf("l%d", i))}
			h.r.enterLocked(callRef{ID: id}, uint64(2*i+1))
			call := id
			call.Call = 1
			h.r.enterLocked(callRef{ID: call, Client: wire.NodeID(id.Logical)}, uint64(2*i+2))
		}
		if len(h.r.amo) > maxSeen {
			t.Errorf("at-most-once table grew to %d (cap %d)", len(h.r.amo), maxSeen)
		}
		if h.r.amoOrder.Len() > maxSeen {
			t.Errorf("amoOrder grew to %d", h.r.amoOrder.Len())
		}
		if len(h.r.clients) > maxSeen {
			t.Errorf("client table grew to %d (cap %d)", len(h.r.clients), maxSeen)
		}
		// The clients that went were the ones entered longest ago.
		if h.r.clients["l99"] != nil || h.r.clients["l100"] == nil {
			t.Errorf("the cap did not evict by oldest position: l99 %v, l100 %v", h.r.clients["l99"], h.r.clients["l100"])
		}
		h.rt.Unlock()
	})
}

func TestRequestLogicalAccessor(t *testing.T) {
	req := Request{ID: wire.InvocationID{Logical: "x", Seq: 3}}
	if req.Logical() != "x" {
		t.Errorf("Logical = %q", req.Logical())
	}
}
