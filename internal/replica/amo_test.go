package replica

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/replobj/replobj/internal/gcs"
	"github.com/replobj/replobj/internal/obs"
	"github.com/replobj/replobj/internal/transport"
	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

// TestRepliesKeptPerClient: the at-most-once table remembers every request
// but holds a reply only for each client's latest one. A retransmission of
// that one is answered from the table, byte for byte; a duplicate of an
// older one — which no Client can send any more — draws the typed
// expired-duplicate refusal. Neither runs the handler again.
func TestRepliesKeptPerClient(t *testing.T) {
	const clients, perClient = 3, 20
	execs := 0
	reg := obs.NewRegistry()
	h := newOneReplicaWithMetrics(t, &execs, reg)
	defer h.rt.Stop()
	vtime.Run(h.rt, "main", func() {
		defer h.r.Stop()
		defer h.cl.Close()
		self := wire.ReplicaID("g", 0)
		submitFor := func(ep transport.Endpoint, k int) gcs.Submit {
			id := wire.InvocationID{Logical: wire.LogicalID(fmt.Sprintf("%s#%d", ep.ID(), k))}
			req := Request{ID: id, Group: "g", Method: "echo", Args: []byte(id.String()), Kind: KindClient, ReplyTo: ep.ID()}
			return gcs.Submit{Group: "g", ID: id.String(), Origin: ep.ID(), Payload: req}
		}
		invoke := func(ep transport.Endpoint, k int) Reply {
			ep.Send(self, submitFor(ep, k))
			msg, ok := recvOne(h.rt, ep, 5*time.Second)
			if !ok {
				t.Fatalf("%s: no reply to request %d", ep.ID(), k)
			}
			return msg.Payload.(Reply)
		}
		var eps []transport.Endpoint
		last := make(map[wire.NodeID]Reply)
		wantBytes := 0
		for c := 0; c < clients; c++ {
			ep := h.net.Endpoint(wire.ClientID(fmt.Sprintf("c%d", c)))
			defer ep.Close()
			eps = append(eps, ep)
		}
		for k := 1; k <= perClient; k++ {
			for _, ep := range eps {
				last[ep.ID()] = invoke(ep, k)
			}
		}
		for _, rep := range last {
			wantBytes += len(rep.Result)
		}
		h.rt.Lock()
		held, heldBytes, rows := h.r.held, h.r.heldBytes, len(h.r.amo)
		h.rt.Unlock()
		if held != clients || heldBytes != wantBytes || rows != clients*perClient {
			t.Errorf("table holds %d replies (%d bytes) in %d rows, want %d (%d bytes) in %d",
				held, heldBytes, rows, clients, wantBytes, clients*perClient)
		}
		entries := reg.Gauge(`replobj_replica_reply_cache_entries{node="g/0"}`).Value()
		bytes := reg.Gauge(`replobj_replica_reply_cache_bytes{node="g/0"}`).Value()
		if entries != clients || bytes != int64(wantBytes) {
			t.Errorf("gauges read %d entries, %d bytes; want %d, %d", entries, bytes, clients, wantBytes)
		}
		for _, ep := range eps {
			if again := invoke(ep, perClient); !reflect.DeepEqual(again, last[ep.ID()]) {
				t.Errorf("%s: retransmission answered %+v, the original was %+v", ep.ID(), again, last[ep.ID()])
			}
			old := invoke(ep, perClient-1)
			if old.Code != CodeExpiredDuplicate || !IsExpiredDuplicate(old.Failure()) || old.Result != nil {
				t.Errorf("%s: duplicate of a superseded request answered %+v, want an expired duplicate", ep.ID(), old)
			}
		}
		// The same refusal at the ordered dispatch point, should the group
		// layer ever let such a duplicate through.
		h.r.dispatchRequest(submitFor(eps[0], 1).Payload.(Request), 999)
		if msg, ok := recvOne(h.rt, eps[0], 5*time.Second); !ok || msg.Payload.(Reply).Code != CodeExpiredDuplicate {
			t.Errorf("ordered duplicate of a superseded request answered %+v", msg.Payload)
		}
		h.rt.Lock()
		n := execs
		h.rt.Unlock()
		if n != clients*perClient {
			t.Errorf("handler ran %d times for %d requests", n, clients*perClient)
		}
	})
}

// TestSupersededWhileExecutingKeepsNoReply: a slow replica may still be
// executing a request when the client's next one is ordered (the client had
// its quorum from the others). The entry is superseded at that ordered
// position, so completing it later stores nothing — what the table holds
// depends on the stream, not on how fast this replica ran.
func TestSupersededWhileExecutingKeepsNoReply(t *testing.T) {
	execs := 0
	h := newOneReplica(t, &execs)
	defer h.rt.Stop()
	first, second := wire.InvocationID{Logical: "client/c#1"}, wire.InvocationID{Logical: "client/c#2"}
	h.rt.Lock()
	defer h.rt.Unlock()
	h.r.markSeenLocked(first, 1, "", "client/c")
	h.r.markSeenLocked(second, 2, "", "client/c")
	h.r.storeReplyLocked(first, Reply{ID: first, Result: []byte("late")})
	h.r.storeReplyLocked(second, Reply{ID: second, Result: []byte("kept")})
	if e := h.r.amo[first]; !e.Done || !e.Superseded || e.Result != nil {
		t.Errorf("superseded entry = %+v, want done and empty", e)
	}
	if h.r.held != 1 || h.r.heldBytes != len("kept") || h.r.latest["client/c"] != second {
		t.Errorf("held %d replies, %d bytes, latest %v", h.r.held, h.r.heldBytes, h.r.latest)
	}
	// Ageing the latest entry out forgets the client too.
	h.r.forgetLocked(second)
	if h.r.held != 0 || h.r.heldBytes != 0 || len(h.r.latest) != 0 {
		t.Errorf("after forgetting: held %d, %d bytes, latest %v", h.r.held, h.r.heldBytes, h.r.latest)
	}
}
