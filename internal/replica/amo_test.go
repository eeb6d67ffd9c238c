package replica

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"github.com/replobj/replobj/internal/gcs"
	"github.com/replobj/replobj/internal/obs"
	"github.com/replobj/replobj/internal/transport"
	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

// TestRepliesKeptPerClient: the at-most-once table keeps one row per client
// — its latest call and that call's reply — however many calls it made. A
// retransmission of that one is answered from the table, byte for byte; a
// duplicate of an older one — which no Client can send any more — draws the
// typed expired-duplicate refusal. Neither runs the handler again.
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
			req := Request{ID: id, Group: "g", Method: "echo", Args: []byte(id.String()), Kind: KindClient, ReplyTo: ep.ID(), Call: uint64(k)}
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
		held, heldBytes, rows, ids := h.r.held, h.r.heldBytes, len(h.r.clients), len(h.r.amo)
		h.rt.Unlock()
		if held != clients || heldBytes != wantBytes || rows != clients || ids != 0 {
			t.Errorf("table holds %d replies (%d bytes) in %d client rows and %d id rows, want %d (%d bytes) in %d and 0",
				held, heldBytes, rows, ids, clients, wantBytes, clients)
		}
		entries := reg.Gauge(`replobj_replica_reply_cache_entries{node="g/0"}`).Value()
		bytes := reg.Gauge(`replobj_replica_reply_cache_bytes{node="g/0"}`).Value()
		if entries != clients || bytes != int64(wantBytes) {
			t.Errorf("gauges read %d entries, %d bytes; want %d, %d", entries, bytes, clients, wantBytes)
		}
		clientRows := reg.Gauge(`replobj_replica_amo_rows{node="g/0",kind="client"}`).Value()
		idRows := reg.Gauge(`replobj_replica_amo_rows{node="g/0",kind="id"}`).Value()
		if clientRows != clients || idRows != 0 {
			t.Errorf("row gauges read %d client rows, %d id rows; want %d, 0", clientRows, idRows, clients)
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
// its quorum from the others). The row is overwritten at that ordered
// position, so completing the old call later stores nothing — what the table
// holds depends on the stream, not on how fast this replica ran.
func TestSupersededWhileExecutingKeepsNoReply(t *testing.T) {
	execs := 0
	h := newOneReplica(t, &execs)
	defer h.rt.Stop()
	first := callRef{ID: wire.InvocationID{Logical: "client/c#1"}, Client: "client/c", Call: 1}
	second := callRef{ID: wire.InvocationID{Logical: "client/c#2"}, Client: "client/c", Call: 2}
	h.rt.Lock()
	defer h.rt.Unlock()
	h.r.enterLocked(first, 1)
	h.r.enterLocked(second, 2)
	h.r.storeReplyLocked(first, Reply{ID: first.ID, Result: []byte("late")})
	if row := h.r.clients["client/c"]; row.Call != 2 || row.Entry.Done || h.r.held != 0 {
		t.Errorf("after the superseded call completed: row %+v, %d replies held; want call 2 executing, none", row, h.r.held)
	}
	h.r.storeReplyLocked(second, Reply{ID: second.ID, Result: []byte("kept")})
	if v, e := h.r.classifyLocked(first); v != amoExpired || e.At != 2 {
		t.Errorf("the superseded call classifies as %v (entry %+v), want expired by the call at 2", v, e)
	}
	if v, e := h.r.classifyLocked(second); v != amoDuplicate || string(e.Result) != "kept" {
		t.Errorf("the latest call classifies as %v (entry %+v), want a duplicate holding its reply", v, e)
	}
	if h.r.held != 1 || h.r.heldBytes != len("kept") || len(h.r.clients) != 1 {
		t.Errorf("held %d replies, %d bytes, in %d rows", h.r.held, h.r.heldBytes, len(h.r.clients))
	}
	// Ageing the row out forgets the client.
	h.r.forgetClientLocked("client/c")
	if h.r.held != 0 || h.r.heldBytes != 0 || len(h.r.clients) != 0 {
		t.Errorf("after forgetting: held %d, %d bytes, %d rows", h.r.held, h.r.heldBytes, len(h.r.clients))
	}
}

// TestQuickClientTableMatchesPerRequestModel holds the table against a
// reference that never forgets: every id it has seen with its reply, and
// every client's highest call number. Over random ordered streams — fresh
// calls, retransmissions of a client's latest, stale copies of older calls
// (seen before or not), unnumbered requests and their duplicates, and
// completions in any order — both must execute the same requests and give
// every position the same answer, while the table never holds more rows than
// there are clients plus unnumbered requests.
func TestQuickClientTableMatchesPerRequestModel(t *testing.T) {
	const clients, steps = 5, 300
	type outcome struct {
		verdict amoVerdict
		reply   string // the cached reply of a done duplicate
	}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := &Replica{clients: make(map[wire.NodeID]*clientRow), amo: make(map[wire.InvocationID]amoEntry)}
		// The reference.
		high := make(map[wire.NodeID]uint64)
		replies := make(map[wire.InvocationID]string) // present = seen, "" = executing
		var pending, unnumbered []callRef
		numbered := func(c wire.NodeID, call uint64) callRef {
			return callRef{ID: wire.InvocationID{Logical: wire.LogicalID(fmt.Sprintf("%s#%d", c, call))}, Client: c, Call: call}
		}
		for seq := uint64(1); seq <= steps; seq++ {
			c := wire.ClientID(fmt.Sprint(rng.Intn(clients)))
			var ref callRef
			switch op := rng.Intn(10); {
			case op < 2 && len(pending) > 0: // a completion, not a delivery
				i := rng.Intn(len(pending))
				ref, pending[i] = pending[i], pending[len(pending)-1]
				pending = pending[:len(pending)-1]
				result := "reply to " + ref.ID.String()
				replies[ref.ID] = result
				r.storeReplyLocked(ref, Reply{ID: ref.ID, Result: []byte(result)})
				continue
			case op < 5:
				ref = numbered(c, high[c]+1+uint64(rng.Intn(2))) // gaps: calls made to other groups
			case op < 7:
				ref = numbered(c, max(high[c], 1))
			case op < 8:
				ref = numbered(c, 1+uint64(rng.Int63n(int64(high[c]+1))))
			case op < 9 || len(unnumbered) == 0:
				ref = callRef{ID: wire.InvocationID{Logical: "nested", Seq: seq}}
				unnumbered = append(unnumbered, ref)
			default:
				ref = unnumbered[rng.Intn(len(unnumbered))]
			}
			var want outcome
			reply, seen := replies[ref.ID]
			switch {
			case ref.Call != 0 && ref.Call < high[ref.Client]:
				want.verdict = amoExpired
			case ref.Call == 0 && seen || ref.Call != 0 && ref.Call == high[ref.Client]:
				want = outcome{amoDuplicate, reply}
			default:
				replies[ref.ID] = ""
				if ref.Call != 0 {
					high[ref.Client] = ref.Call
				}
			}
			verdict, e := r.classifyLocked(ref)
			got := outcome{verdict: verdict}
			switch {
			case verdict == amoFresh:
				r.enterLocked(ref, seq)
				pending = append(pending, ref)
			case verdict == amoDuplicate && e.Done:
				got.reply = string(e.Result)
			}
			if got != want {
				t.Errorf("seed %d, position %d, %+v: the table says %+v, the reference %+v", seed, seq, ref, got, want)
				return false
			}
			if rows := len(r.clients) + len(r.amo); rows > clients+len(unnumbered) || len(r.clients) > clients || r.amoOrder.Len() != len(r.amo) {
				t.Errorf("seed %d, position %d: %d client rows, %d id rows (%d queued) for %d clients and %d unnumbered requests",
					seed, seq, len(r.clients), len(r.amo), r.amoOrder.Len(), clients, len(unnumbered))
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// BenchmarkAdmitFresh is the at-most-once bookkeeping of one fresh delivery —
// classify, enter, store the reply — round-robin over live clients.
func BenchmarkAdmitFresh(b *testing.B) {
	for _, clients := range []int{4, 4096} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			r := &Replica{clients: make(map[wire.NodeID]*clientRow), amo: make(map[wire.InvocationID]amoEntry)}
			refs := make([]callRef, clients)
			for i := range refs {
				name := wire.ClientID(fmt.Sprint(i))
				refs[i] = callRef{ID: wire.InvocationID{Logical: wire.LogicalID(name + "#1")}, Client: name}
			}
			reply := Reply{Result: make([]byte, 8)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ref := &refs[i%clients]
				ref.Call++
				if v, _ := r.classifyLocked(*ref); v != amoFresh {
					b.Fatalf("call %d of %s classified %v", ref.Call, ref.Client, v)
				}
				r.enterLocked(*ref, uint64(i+1))
				r.storeReplyLocked(*ref, reply)
			}
		})
	}
}
