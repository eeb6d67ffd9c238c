package replobj_test

import (
	"fmt"
	"reflect"
	"testing"

	replobj "github.com/replobj/replobj"
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
	sub := gcs.Submit{Group: req.Group, ID: req.ID.String(), Origin: rc.ep.ID(), Payload: req}
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
			return rc.call(c, replica.Request{ID: id, Group: "cnt", Method: "add", Args: []byte{1}})
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
