package client

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/replobj/replobj/internal/gcs"
	"github.com/replobj/replobj/internal/replica"
	"github.com/replobj/replobj/internal/shard"
	"github.com/replobj/replobj/internal/transport"
	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

// fakeShardWorld simulates a sharded object at the protocol level — a
// directory replica serving encoded tables and one fake replica per shard
// group that validates the stamped key's home exactly as a real replica
// does — enough to unit-test the Router in isolation.
type fakeShardWorld struct {
	rt  vtime.Runtime
	net *transport.Inproc
	eps []transport.Endpoint

	// guarded by the runtime lock
	table    shard.Table          // what the directory serves
	homes    *shard.Ring          // what the shard groups validate against
	attempts map[wire.GroupID]int // routed-request deliveries per group
	gets     int                  // directory reads
}

func newFakeShardWorld(t *testing.T, rt vtime.Runtime, net *transport.Inproc, shards int) *fakeShardWorld {
	t.Helper()
	w := &fakeShardWorld{
		rt:       rt,
		net:      net,
		table:    shard.NewTable("o", shards, 0),
		attempts: make(map[wire.GroupID]int),
	}
	w.homes = shard.NewRing(w.table)

	dirID := wire.ReplicaID(shard.DirGroup("o"), 0)
	dirEP := net.Endpoint(dirID)
	w.eps = append(w.eps, dirEP)
	rt.Go("fake/"+string(dirID), func() {
		for {
			msg, ok := dirEP.Recv()
			if !ok {
				return
			}
			req, ok := submitRequest(msg.Payload)
			if !ok {
				continue
			}
			rt.Lock()
			w.gets++
			enc := w.table.Encode()
			rt.Unlock()
			dirEP.Send(req.ReplyTo, replica.Reply{ID: req.ID, From: dirID, Result: enc})
		}
	})

	for _, gid := range w.table.Shards {
		gid := gid
		id := wire.ReplicaID(gid, 0)
		ep := net.Endpoint(id)
		w.eps = append(w.eps, ep)
		rt.Go("fake/"+string(id), func() {
			for {
				msg, ok := ep.Recv()
				if !ok {
					return
				}
				req, ok := submitRequest(msg.Payload)
				if !ok {
					continue
				}
				rt.Lock()
				w.attempts[gid]++
				home := w.homes.HomeGroup(req.ShardKey)
				rt.Unlock()
				rep := replica.Reply{ID: req.ID, From: id, Result: []byte("ok@" + string(gid))}
				if home != gid {
					rep.Result, rep.Code, rep.Err = nil, replica.CodeRedirect, shard.RedirectError(req.ShardKey, home)
				}
				ep.Send(req.ReplyTo, rep)
			}
		})
	}
	return w
}

func submitRequest(payload any) (replica.Request, bool) {
	sub, ok := payload.(gcs.Submit)
	if !ok {
		return replica.Request{}, false
	}
	req, ok := sub.Payload.(replica.Request)
	return req, ok
}

func (w *fakeShardWorld) close() {
	for _, ep := range w.eps {
		ep.Close()
	}
}

func (w *fakeShardWorld) directory() *replica.Directory {
	d := replica.NewDirectory()
	d.Add(shard.DirGroup("o"), []wire.NodeID{wire.ReplicaID(shard.DirGroup("o"), 0)}, false)
	for _, gid := range w.table.Shards {
		d.Add(gid, []wire.NodeID{wire.ReplicaID(gid, 0)}, false)
	}
	return d
}

func newRouterClient(w *fakeShardWorld) *Client {
	return New(Config{
		RT: w.rt, Name: "c1", Directory: w.directory(), Network: w.net,
		Policy: First, Timeout: 5 * time.Second,
	})
}

func TestRouterRoutesToHome(t *testing.T) {
	rt := vtime.Virtual()
	defer rt.Stop()
	net := transport.NewInproc(rt)
	w := newFakeShardWorld(t, rt, net, 2)
	c := newRouterClient(w)
	vtime.Run(rt, "main", func() {
		defer w.close()
		defer c.Close()
		r := c.Router("o")
		out, err := r.Invoke("m", nil, WithShardKey("k1"))
		if err != nil {
			t.Fatalf("Invoke: %v", err)
		}
		home, _ := r.Home("k1")
		if string(out) != "ok@"+string(home) {
			t.Errorf("Invoke answered by %q, ring says home is %q", out, home)
		}
		rt.Lock()
		other := 0
		for gid, n := range w.attempts {
			if gid != home {
				other += n
			}
		}
		rt.Unlock()
		if other != 0 {
			t.Errorf("%d requests hit non-home shards", other)
		}
	})
}

func TestRouterRequiresShardKey(t *testing.T) {
	rt := vtime.Virtual()
	defer rt.Stop()
	net := transport.NewInproc(rt)
	w := newFakeShardWorld(t, rt, net, 2)
	c := newRouterClient(w)
	vtime.Run(rt, "main", func() {
		defer w.close()
		defer c.Close()
		if _, err := c.Router("o").Invoke("m", nil); err == nil {
			t.Error("Invoke without WithShardKey succeeded")
		}
	})
}

// TestRouterReturnsARedirectAtOnce: the shard groups validate against
// another object's ring than the one the directory serves, so every routed
// request is misrouted.
// Invoke returns the redirect as a CodeRedirect error after one delivery: no
// backoff sleep, no second read of the directory, no retry.
func TestRouterReturnsARedirectAtOnce(t *testing.T) {
	rt := vtime.Virtual()
	defer rt.Stop()
	net := transport.NewInproc(rt)
	w := newFakeShardWorld(t, rt, net, 2)
	c := newRouterClient(w)
	vtime.Run(rt, "main", func() {
		defer w.close()
		defer c.Close()
		r := c.Router("o")
		t0 := rt.Now()
		if err := r.Refresh(); err != nil {
			t.Fatalf("Refresh: %v", err)
		}
		rtt := rt.Now() - t0
		rt.Lock()
		w.homes = shard.NewRing(shard.NewTable("p", 2, 0))
		rt.Unlock()
		t0 = rt.Now()
		_, err := r.Invoke("m", nil, WithShardKey("k1"))
		var e *replica.Error
		if !errors.As(err, &e) || e.Code != replica.CodeRedirect || !strings.Contains(e.Msg, "is homed on p@") {
			t.Fatalf("Invoke: %v, want the shard's CodeRedirect", err)
		}
		if waited := rt.Now() - t0; waited > rtt {
			t.Errorf("Invoke took %v, want one round trip (%v)", waited, rtt)
		}
		rt.Lock()
		total := 0
		for _, n := range w.attempts {
			total += n
		}
		gets := w.gets
		rt.Unlock()
		if total != 1 || gets != 1 {
			t.Errorf("%d shard deliveries and %d directory reads, want 1 and 1", total, gets)
		}
	})
}
