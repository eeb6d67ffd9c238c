package replobj_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	replobj "github.com/replobj/replobj"
	"github.com/replobj/replobj/internal/client"
	"github.com/replobj/replobj/internal/faultnet"
	"github.com/replobj/replobj/internal/gcs"
	"github.com/replobj/replobj/internal/replica"
	"github.com/replobj/replobj/internal/transport"
	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

// rawClient plays a client by hand, so a test can send what no Client
// would: a request again after it has been answered, or an older one. It
// addresses every member of the group each time and takes one reply from
// each.
type rawClient struct {
	t  *testing.T
	ep transport.Endpoint
}

func (rc rawClient) call(c *replobj.Cluster, req replica.Request) map[replobj.NodeID]replica.Reply {
	rc.t.Helper()
	req.Kind, req.ReplyTo = replica.KindClient, rc.ep.ID()
	members := c.Directory().Members(req.Group)
	sub := gcs.Submit{Group: req.Group, Origin: rc.ep.ID(), Call: req.Call, Payload: req}
	if req.Call == 0 {
		sub.ID = req.ID.String()
	}
	for _, m := range members {
		rc.ep.Send(m, sub)
	}
	got := make(map[replobj.NodeID]replica.Reply, len(members))
	for len(got) < len(members) {
		msg, ok := rc.ep.Recv()
		if !ok {
			rc.t.Fatalf("%s: endpoint closed with %d of %d replies to %v", rc.ep.ID(), len(got), len(members), req.ID)
		}
		if rep, isReply := msg.Payload.(replica.Reply); isReply && rep.ID == req.ID {
			got[rep.From] = rep
		}
	}
	return got
}

// TestRetransmissionAnsweredAlikeByAllReplicas: with C clients and far more
// requests than that, every replica holds C replies; each answers a
// retransmission of a client's latest request with the very reply it sent
// the first time, and a duplicate of an older one with the typed
// expired-duplicate refusal. The counter's own value shows that neither ran
// the handler again.
func TestRetransmissionAnsweredAlikeByAllReplicas(t *testing.T) {
	const clients, perClient, replicas, every = 3, 12, 3, 8
	rt := vtime.Virtual()
	net := transport.NewInproc(rt)
	reg := replobj.NewMetricsRegistry()
	c := replobj.NewCluster(rt, replobj.WithNetwork(net), replobj.WithMetrics(reg))
	g := ckptCounterGroup(t, c, "cnt", replicas, replobj.WithCheckpointEvery(every), replobj.WithSchedTrace(0))
	run(rt, c, func() {
		add := func(rc rawClient, k int) map[replobj.NodeID]replica.Reply {
			id := wire.InvocationID{Logical: wire.LogicalID(fmt.Sprintf("%s#%d", rc.ep.ID(), k))}
			return rc.call(c, replica.Request{ID: id, Group: "cnt", Method: "add", Args: []byte{1}, Call: uint64(k)})
		}
		var rcs []rawClient
		for i := 0; i < clients; i++ {
			rcs = append(rcs, rawClient{t, net.Endpoint(replobj.NodeID(fmt.Sprintf("raw%d", i)))})
		}
		last := make([]map[replobj.NodeID]replica.Reply, clients)
		for k := 1; k <= perClient; k++ {
			for i, rc := range rcs {
				last[i] = add(rc, k)
			}
		}
		for rank := 0; rank < replicas; rank++ {
			node := g.Members()[rank]
			held := g.Replica(rank).CacheSize()
			if held != clients {
				t.Errorf("%s holds %d replies after %d requests of %d clients, want %d", node, held, clients*perClient, clients, clients)
			}
			if v := reg.Gauge(`replobj_replica_reply_cache_entries{node="` + string(node) + `"}`).Value(); v != int64(held) {
				t.Errorf("%s: reply_cache_entries gauge reads %d, the table holds %d", node, v, held)
			}
		}
		for i, rc := range rcs {
			if again := add(rc, perClient); !reflect.DeepEqual(again, last[i]) {
				t.Errorf("%s: retransmission answered\n  %+v\nthe originals were\n  %+v", rc.ep.ID(), again, last[i])
			}
			for node, rep := range add(rc, perClient-2) {
				if !replica.IsExpiredDuplicate(rep.Failure()) {
					t.Errorf("%s answered a duplicate of a superseded request with %+v, want an expired duplicate", node, rep)
				}
			}
		}
		v, err := c.NewClient("reader").Invoke("cnt", "get", nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := fromU64(v); got != clients*perClient {
			t.Errorf("counter = %d after %d adds: a duplicate ran the handler", got, clients*perClient)
		}
		for rank := 1; rank < replicas; rank++ {
			if d := replobj.FirstTraceDivergence(g.Trace(0), g.Trace(rank)); d != nil {
				t.Errorf("rank 0 vs rank %d diverged: %v", rank, d)
			}
		}
	})
}

// amoRows reads a replica's replobj_replica_amo_rows gauge.
func amoRows(reg *replobj.MetricsRegistry, node replobj.NodeID, kind string) int64 {
	return reg.Gauge(`replobj_replica_amo_rows{node="` + string(node) + `",kind="` + kind + `"}`).Value()
}

// TestClientTableStaysPerClient: on a group without checkpoints — nothing
// ever ages a row out — four clients' 80 000 calls leave four rows in each
// replica's at-most-once table and nothing in the id window: what a replica
// remembers grows with the clients, not with the requests.
func TestClientTableStaysPerClient(t *testing.T) {
	if testing.Short() {
		t.Skip("80 000 invocations")
	}
	const clients, perClient, replicas = 4, 20000, 3
	rt := vtime.Virtual()
	reg := replobj.NewMetricsRegistry()
	c := replobj.NewCluster(rt, replobj.WithMetrics(reg))
	g := ckptCounterGroup(t, c, "cnt", replicas)
	run(rt, c, func() {
		var cls []*replobj.Client
		for i := 0; i < clients; i++ {
			cls = append(cls, c.NewClient(fmt.Sprintf("c%d", i)))
		}
		for k := 0; k < perClient; k++ {
			for _, cl := range cls {
				if _, err := cl.Invoke("cnt", "add", []byte{1}); err != nil {
					t.Fatal(err)
				}
			}
		}
		rt.Sleep(time.Second) // the slowest replica finishes the last call
		for rank := 0; rank < replicas; rank++ {
			node := g.Members()[rank]
			if rows, ids, held := amoRows(reg, node, "client"), amoRows(reg, node, "id"), g.Replica(rank).CacheSize(); rows != clients || ids != 0 || held != clients {
				t.Errorf("%s: %d client rows, %d id rows, %d replies held after %d calls; want %d, 0, %d",
					node, rows, ids, held, clients*perClient, clients, clients)
			}
		}
	})
}

// TestReusedClientNameStartsANewIncarnation: a client made under a name
// that an earlier, closed client bore numbers its calls above all of its
// predecessor's, so its first call is executed — not answered with the
// reply the replicas hold for the predecessor's first call.
func TestReusedClientNameStartsANewIncarnation(t *testing.T) {
	const replicas = 3
	rt := vtime.Virtual()
	c := replobj.NewCluster(rt)
	g := ckptCounterGroup(t, c, "cnt", replicas, replobj.WithSchedTrace(0))
	run(rt, c, func() {
		first := c.NewClient("cli")
		if v, err := first.Invoke("cnt", "add", []byte{1}); err != nil || fromU64(v) != 1 {
			t.Fatalf("first incarnation: add(1) = %v, %v", v, err)
		}
		first.Close()
		second := c.NewClient("cli")
		if v, err := second.Invoke("cnt", "add", []byte{5}); err != nil || fromU64(v) != 6 {
			t.Fatalf("second incarnation: add(5) = %v, %v; want 6 (1 is the first incarnation's cached reply)", v, err)
		}
		replies, err := second.InvokeAll("cnt", "get", nil)
		if err != nil || len(replies) != replicas {
			t.Fatalf("get on all replicas: %d replies, %v", len(replies), err)
		}
		for node, rep := range replies {
			if got := fromU64(rep.Result); got != 6 {
				t.Errorf("%s: counter = %d, want 6", node, got)
			}
		}
		for rank := 1; rank < replicas; rank++ {
			if d := replobj.FirstTraceDivergence(g.Trace(0), g.Trace(rank)); d != nil {
				t.Errorf("rank 0 vs rank %d diverged: %v", rank, d)
			}
		}
	})
}

// TestAbandonedCallNeverRunsAfterALaterOne: a client gives up on call n (its
// copies are held up in the network past its timeout) and makes call n+1,
// which is ordered first. When the copies of n arrive, every member finds
// them below the client's row and settles them before they are ordered:
// each replica refuses them, and n never takes effect after n+1, which its
// client made knowing n had failed.
func TestAbandonedCallNeverRunsAfterALaterOne(t *testing.T) {
	const replicas, held = 3, 300 * time.Millisecond
	rt := vtime.Virtual()
	inner := transport.NewInproc(rt)
	reg := replobj.NewMetricsRegistry()
	c := replobj.NewCluster(rt, replobj.WithNetwork(inner), replobj.WithMetrics(reg))
	g := ckptCounterGroup(t, c, "cnt", replicas, replobj.WithSchedTrace(0))
	// Only the client sends through the fault layer: every message of its
	// is held up until Quiesce lets the later ones pass at once.
	fnet := faultnet.New(rt, inner, faultnet.Profile{Name: "hold", DelayPerMill: 1000, DelayMin: held, DelayMax: held}, 1)
	run(rt, c, func() {
		cl := client.New(client.Config{RT: rt, Name: "slow", Directory: c.Directory(), Network: fnet,
			Timeout: held / 3, Retransmit: held})
		defer cl.Close()
		if _, err := cl.Invoke("cnt", "add", []byte{7}); !errors.Is(err, client.ErrTimeout) {
			t.Fatalf("call 1 = %v, want a timeout", err)
		}
		fnet.Quiesce()
		if v, err := cl.Invoke("cnt", "add", []byte{1}); err != nil || fromU64(v) != 1 {
			t.Fatalf("call 2: add(1) = %v, %v", v, err)
		}
		rt.Sleep(2 * held) // call 1 arrives and is refused, never ordered
		replies, err := cl.InvokeAll("cnt", "get", nil)
		if err != nil || len(replies) != replicas {
			t.Fatalf("get on all replicas: %d replies, %v", len(replies), err)
		}
		for rank, node := range g.Members() {
			if got := fromU64(replies[node].Result); got != 1 {
				t.Errorf("%s: counter = %d, want 1: the abandoned add(7) ran", node, got)
			}
			// Every member had a copy of the client's first request.
			if n := reg.Counter(`replobj_replica_duplicate_expired_total{node="` + string(node) + `"}`).Value(); n < 1 {
				t.Errorf("%s refused no request as expired", node)
			}
			if d := replobj.FirstTraceDivergence(g.Trace(0), g.Trace(rank)); d != nil {
				t.Errorf("rank 0 vs rank %d diverged: %v", rank, d)
			}
		}
		if count, _ := g.Trace(0).Digest("order"); count != 2 {
			t.Errorf("order stream has %d events, want 2 (call 2 and the get): the abandoned call is never ordered", count)
		}
	})
}
