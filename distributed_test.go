package replobj_test

// Multi-process-style deployment test: each replica rank runs in its own
// Cluster instance (sharing nothing but TCP addresses), exactly like the
// cmd/replnode binaries would; a client in a fourth "process" invokes the
// group. Validates StartRank, the TCP reply routing for unregistered
// clients, and cross-process group communication.

import (
	"fmt"
	"testing"
	"time"

	replobj "github.com/replobj/replobj"
	"github.com/replobj/replobj/internal/transport"
	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

func TestDistributedProcessesOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("real-clock TCP test")
	}
	rt := vtime.Real()
	defer rt.Stop()

	// Each "process" binds its own node on port 0; the actual addresses are
	// exchanged afterwards (lazy dialing makes late registration safe).
	newGroupProcess := func(rank int) (*replobj.Cluster, *transport.TCPNetwork) {
		reg := map[wire.NodeID]string{
			wire.ReplicaID("cnt", rank): "127.0.0.1:0",
		}
		net := transport.NewTCP(rt, reg)
		c := replobj.NewCluster(rt, replobj.WithNetwork(net))
		g, err := c.NewGroup("cnt", 3,
			replobj.WithScheduler(replobj.ADSAT),
			replobj.WithState(func() any { return &counter{} }))
		if err != nil {
			t.Fatal(err)
		}
		g.Register("add", func(inv *replobj.Invocation) ([]byte, error) {
			st := inv.State().(*counter)
			if err := inv.Lock("state"); err != nil {
				return nil, err
			}
			defer func() { _ = inv.Unlock("state") }()
			st.v += uint64(inv.Args()[0])
			return u64(st.v), nil
		})
		g.StartRank(rank)
		return c, net
	}

	var nodes []*replobj.Cluster
	var nets []*transport.TCPNetwork
	addrs := map[wire.NodeID]string{}
	for rank := 0; rank < 3; rank++ {
		c, net := newGroupProcess(rank)
		nodes = append(nodes, c)
		nets = append(nets, net)
		id := wire.ReplicaID("cnt", rank)
		addrs[id] = net.Address(id)
	}
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	// Exchange addresses: every node learns its peers.
	for _, net := range nets {
		for id, addr := range addrs {
			net.Register(id, addr)
		}
	}
	time.Sleep(50 * time.Millisecond) // listeners up

	// Client "process": knows the replica addresses, runs no replicas.
	reg := map[wire.NodeID]string{wire.ClientID("c1"): "127.0.0.1:0"}
	for k, v := range addrs {
		reg[k] = v
	}
	clientCluster := replobj.NewCluster(rt, replobj.WithNetwork(transport.NewTCP(rt, reg)))
	defer clientCluster.Close()
	if _, err := clientCluster.NewGroup("cnt", 3); err != nil {
		t.Fatal(err)
	}
	cl := clientCluster.NewClient("c1",
		replobj.WithInvocationTimeout(10*time.Second),
		replobj.WithReplyPolicy(replobj.All))

	for i := 1; i <= 5; i++ {
		out, err := cl.Invoke("cnt", "add", []byte{1})
		if err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
		if got := fromU64(out); got != uint64(i) {
			t.Fatalf("counter = %d after %d adds", got, i)
		}
	}
	replies, err := cl.InvokeAll("cnt", "add", []byte{0})
	if err != nil {
		t.Fatal(err)
	}
	for node, rep := range replies {
		if got := fromU64(rep.Result); got != 5 {
			t.Errorf("%v: counter = %d, want 5", node, got)
		}
	}
}

// TestDistributedShardedOverTCP is the sharded counterpart, shaped like
// cmd/replnode -shards: each rank hosts the directory and both shard groups
// of a 2-shard object in its own Cluster, and a client-only Cluster routes
// puts, gets and cross-shard transfers through a Router that bootstraps
// from the stateless directory over TCP. Within each shard group the three
// ranks must end with the same order and sched digests (SEQ records every
// execution decision on the sched stream).
func TestDistributedShardedOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("real-clock TCP test")
	}
	const (
		shards = 2
		ranks  = 3
		keys   = 8
	)
	rt := vtime.Real()
	defer rt.Stop()

	groups := []wire.GroupID{replobj.ShardDirGroup("kv")}
	for i := 0; i < shards; i++ {
		groups = append(groups, replobj.ShardGroupName("kv", i))
	}
	var nodes []*replobj.Cluster
	var nets []*transport.TCPNetwork
	var objs []*replobj.Sharded
	addrs := map[wire.NodeID]string{}
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	for rank := 0; rank < ranks; rank++ {
		reg := map[wire.NodeID]string{}
		for _, g := range groups {
			reg[wire.ReplicaID(g, rank)] = "127.0.0.1:0"
		}
		net := transport.NewTCP(rt, reg)
		c := replobj.NewCluster(rt, replobj.WithNetwork(net))
		nodes, nets = append(nodes, c), append(nets, net)
		s := newShardedKV(t, c, "kv", shards, ranks,
			replobj.WithScheduler(replobj.SEQ), replobj.WithSchedTrace(0))
		s.Dir().StartRank(rank)
		s.EachShard(func(_ int, g *replobj.Group) { g.StartRank(rank) })
		objs = append(objs, s)
		for _, g := range groups {
			id := wire.ReplicaID(g, rank)
			addrs[id] = net.Address(id)
		}
	}
	for _, net := range nets {
		for id, addr := range addrs {
			net.Register(id, addr)
		}
	}
	time.Sleep(50 * time.Millisecond) // listeners up

	reg := map[wire.NodeID]string{wire.ClientID("c1"): "127.0.0.1:0"}
	for k, v := range addrs {
		reg[k] = v
	}
	clientCluster := replobj.NewCluster(rt, replobj.WithNetwork(transport.NewTCP(rt, reg)))
	defer clientCluster.Close()
	if _, err := clientCluster.NewSharded("kv", ranks, replobj.WithShards(shards)); err != nil {
		t.Fatal(err)
	}
	r := clientCluster.NewClient("c1",
		replobj.WithInvocationTimeout(10*time.Second),
		replobj.WithReplyPolicy(replobj.All)).Router("kv")

	homes := map[wire.GroupID][]string{}
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("acct-%d", i)
		if _, err := r.Invoke("put", u64(10), replobj.WithShardKey(key)); err != nil {
			t.Fatalf("put %s: %v", key, err)
		}
		home, err := r.Home(key)
		if err != nil {
			t.Fatal(err)
		}
		homes[home] = append(homes[home], key)
	}
	if len(homes) != shards {
		t.Fatalf("%d keys homed on %d of %d shards: %v", keys, len(homes), shards, homes)
	}
	a, b := homes[groups[1]][0], homes[groups[2]][0]
	xfer := func(from, to string, amount uint64) {
		if _, err := r.Invoke("xfer", append(u64(amount), to...), replobj.WithShardKey(from)); err != nil {
			t.Fatalf("xfer %s->%s: %v", from, to, err)
		}
	}
	xfer(a, b, 7)
	xfer(b, a, 3)
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("acct-%d", i)
		want := uint64(10)
		switch key {
		case a:
			want = 10 - 7 + 3
		case b:
			want = 10 + 7 - 3
		}
		v, err := r.Invoke("get", nil, replobj.WithShardKey(key))
		if err != nil {
			t.Fatalf("get %s: %v", key, err)
		}
		if got := fromU64(v); got != want {
			t.Errorf("%s = %d, want %d", key, got, want)
		}
	}

	// Every rank has executed every request (reply policy All); trailing
	// scheduler events may still be in flight, so wait for the digests to
	// settle before calling a difference a divergence.
	type digest struct{ count, sum uint64 }
	diverged := func() string {
		for i := 0; i < shards; i++ {
			for _, stream := range []string{"order", "sched"} {
				var ref digest
				for rank, s := range objs {
					var d digest
					d.count, d.sum = s.Shard(i).Trace(rank).Digest(stream)
					if rank == 0 {
						ref = d
					}
					if d.count == 0 || d != ref {
						return fmt.Sprintf("shard %d %s: rank %d %+v, rank 0 %+v", i, stream, rank, d, ref)
					}
				}
			}
		}
		return ""
	}
	deadline := time.Now().Add(5 * time.Second)
	for d := diverged(); d != ""; d = diverged() {
		if time.Now().After(deadline) {
			t.Fatalf("digests differ: %s", d)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
