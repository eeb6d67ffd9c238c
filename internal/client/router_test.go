package client

import (
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
// group that validates the stamped epoch exactly as a real replica does —
// enough to unit-test the Router's refresh/redirect/backoff loop in
// isolation.
type fakeShardWorld struct {
	rt  vtime.Runtime
	net *transport.Inproc
	eps []transport.Endpoint

	// guarded by the runtime lock
	table     shard.Table             // what the directory serves
	installed map[wire.GroupID]uint64 // per shard group epoch
	attempts  map[wire.GroupID]int    // routed-request deliveries per group
	// dualHome marks a group as a migration source inside the dual-home
	// window: a request stamped with its (pre-fence) installed epoch is
	// answered with a forwarded result instead of executing locally —
	// mirroring the replica's ordered relay of moved keys to their new
	// home. The value labels the relay target in the reply payload.
	dualHome map[wire.GroupID]wire.GroupID
}

func newFakeShardWorld(t *testing.T, rt vtime.Runtime, net *transport.Inproc, shards int) *fakeShardWorld {
	t.Helper()
	w := &fakeShardWorld{
		rt:        rt,
		net:       net,
		table:     shard.NewTable("o", shards, 0),
		installed: make(map[wire.GroupID]uint64),
		attempts:  make(map[wire.GroupID]int),
		dualHome:  make(map[wire.GroupID]wire.GroupID),
	}
	for _, gid := range w.table.Shards {
		w.installed[gid] = w.table.Epoch
	}

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
				epoch := w.installed[gid]
				fwd, dual := w.dualHome[gid]
				rt.Unlock()
				rep := replica.Reply{ID: req.ID, From: id}
				switch {
				case req.ShardEpoch == epoch && dual:
					rep.Result = []byte("fwd@" + string(fwd))
				case req.ShardEpoch == epoch:
					rep.Result = []byte("ok@" + string(gid))
				default:
					rep.Code = replica.CodeRedirect
					rep.Err = shard.RedirectError(epoch, req.ShardKey, gid)
					rep.ShardEpoch = epoch
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

// advanceEpoch installs the next-epoch table in the directory and,
// optionally, in the shard groups.
func (w *fakeShardWorld) advanceEpoch(vnodes int, installInShards bool) {
	w.rt.Lock()
	w.table = w.table.Next(vnodes)
	if installInShards {
		for _, gid := range w.table.Shards {
			w.installed[gid] = w.table.Epoch
		}
	}
	w.rt.Unlock()
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
		if r.Epoch() != 1 {
			t.Errorf("Epoch = %d, want 1", r.Epoch())
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

// TestRouterStaleEpochRedirect: the world moves to epoch 2 after the
// router cached epoch 1. The routed invoke must be redirected exactly
// once, back off in virtual time, refresh, and succeed on the retry.
func TestRouterStaleEpochRedirect(t *testing.T) {
	rt := vtime.Virtual()
	defer rt.Stop()
	net := transport.NewInproc(rt)
	w := newFakeShardWorld(t, rt, net, 2)
	c := newRouterClient(w)
	vtime.Run(rt, "main", func() {
		defer w.close()
		defer c.Close()
		r := c.Router("o").WithRedirectBackoff(10 * time.Millisecond)
		if err := r.Refresh(); err != nil {
			t.Fatalf("Refresh: %v", err)
		}
		w.advanceEpoch(128, true)

		t0 := rt.Now()
		if _, err := r.Invoke("m", nil, WithShardKey("k1")); err != nil {
			t.Fatalf("Invoke after epoch bump: %v", err)
		}
		if r.Epoch() != 2 {
			t.Errorf("Epoch after redirect = %d, want 2", r.Epoch())
		}
		if waited := rt.Now() - t0; waited < 10*time.Millisecond {
			t.Errorf("redirect retried after %v, before the 10ms backoff", waited)
		}
		rt.Lock()
		total := 0
		for _, n := range w.attempts {
			total += n
		}
		rt.Unlock()
		// One redirected attempt plus one successful retry (homes may move
		// across the epoch bump, but each attempt is a single delivery under
		// policy First with one replica per group).
		if total != 2 {
			t.Errorf("shard deliveries = %d, want 2 (one redirect, one retry)", total)
		}
	})
}

// TestRouterGivesUpAfterMaxRedirects: the directory keeps serving epoch 1
// while the shards installed epoch 2 — refresh never converges, so the
// router must stop after its redirect budget with a descriptive error.
func TestRouterGivesUpAfterMaxRedirects(t *testing.T) {
	rt := vtime.Virtual()
	defer rt.Stop()
	net := transport.NewInproc(rt)
	w := newFakeShardWorld(t, rt, net, 2)
	c := newRouterClient(w)
	vtime.Run(rt, "main", func() {
		defer w.close()
		defer c.Close()
		r := c.Router("o").WithMaxRedirects(2).WithRedirectBackoff(time.Millisecond)
		if err := r.Refresh(); err != nil {
			t.Fatalf("Refresh: %v", err)
		}
		// Shards move on; the directory stays stale (installInShards only).
		rt.Lock()
		for _, gid := range w.table.Shards {
			w.installed[gid] = 2
		}
		rt.Unlock()

		_, err := r.Invoke("m", nil, WithShardKey("k1"))
		if err == nil {
			t.Fatal("Invoke succeeded against permanently mismatched epochs")
		}
		if !strings.Contains(err.Error(), "wrong-shard redirects") {
			t.Errorf("error %q does not mention redirects", err)
		}
		rt.Lock()
		total := 0
		for _, n := range w.attempts {
			total += n
		}
		rt.Unlock()
		if total != 3 {
			t.Errorf("shard deliveries = %d, want 3 (initial + 2 redirect retries)", total)
		}
	})
}

// TestRouterDualHomeForwardLands: the dual-home window of a live reshard —
// the directory already serves the next epoch and the key's state has left
// with the cut, but the source group's fence has not flipped yet. A stale
// router (old epoch cached) must land its request in ONE delivery: the
// source relays it over the ordered cross-shard path and answers with the
// forwarded result — no redirect round, no forced refresh.
func TestRouterDualHomeForwardLands(t *testing.T) {
	rt := vtime.Virtual()
	defer rt.Stop()
	net := transport.NewInproc(rt)
	w := newFakeShardWorld(t, rt, net, 2)
	c := newRouterClient(w)
	vtime.Run(rt, "main", func() {
		defer w.close()
		defer c.Close()
		r := c.Router("o")
		if err := r.Refresh(); err != nil {
			t.Fatalf("Refresh: %v", err)
		}
		home, err := r.Home("k1")
		if err != nil {
			t.Fatalf("Home: %v", err)
		}

		// Open the window: directory flips to epoch 2, the old home keeps
		// its pre-fence epoch but forwards (the key's state moved with the
		// cut to "o@9").
		rt.Lock()
		w.dualHome[home] = wire.GroupID("o@9")
		rt.Unlock()
		w.advanceEpoch(128, false)

		out, err := r.Invoke("m", nil, WithShardKey("k1"))
		if err != nil {
			t.Fatalf("Invoke in dual-home window: %v", err)
		}
		if string(out) != "fwd@o@9" {
			t.Errorf("result %q, want the forwarded reply fwd@o@9", out)
		}
		if r.Epoch() != 1 {
			t.Errorf("Epoch = %d, want 1 (the stale router must not be forced to refresh)", r.Epoch())
		}
		rt.Lock()
		total := 0
		for _, n := range w.attempts {
			total += n
		}
		rt.Unlock()
		if total != 1 {
			t.Errorf("shard deliveries = %d, want 1 (forward lands without a redirect round)", total)
		}
	})
}

// TestRouterDualHomeFenceConverges: after the fence closes the window, the
// same stale router is redirected exactly once, refreshes to the new
// table, and its next attempt lands on the new home under the new epoch.
func TestRouterDualHomeFenceConverges(t *testing.T) {
	rt := vtime.Virtual()
	defer rt.Stop()
	net := transport.NewInproc(rt)
	w := newFakeShardWorld(t, rt, net, 2)
	c := newRouterClient(w)
	vtime.Run(rt, "main", func() {
		defer w.close()
		defer c.Close()
		r := c.Router("o").WithRedirectBackoff(time.Millisecond)
		if err := r.Refresh(); err != nil {
			t.Fatalf("Refresh: %v", err)
		}
		home, err := r.Home("k1")
		if err != nil {
			t.Fatalf("Home: %v", err)
		}
		rt.Lock()
		w.dualHome[home] = wire.GroupID("o@9")
		rt.Unlock()
		w.advanceEpoch(128, false)
		if _, err := r.Invoke("m", nil, WithShardKey("k1")); err != nil {
			t.Fatalf("Invoke in dual-home window: %v", err)
		}

		// Fence: every group installs epoch 2 and forwarding stops.
		rt.Lock()
		delete(w.dualHome, home)
		for _, gid := range w.table.Shards {
			w.installed[gid] = w.table.Epoch
		}
		attemptsBefore := 0
		for _, n := range w.attempts {
			attemptsBefore += n
		}
		rt.Unlock()

		out, err := r.Invoke("m", nil, WithShardKey("k1"))
		if err != nil {
			t.Fatalf("Invoke after fence: %v", err)
		}
		if !strings.HasPrefix(string(out), "ok@") {
			t.Errorf("result %q, want a direct ok@... reply under the new epoch", out)
		}
		if r.Epoch() != 2 {
			t.Errorf("Epoch after fence = %d, want 2 (redirect must refresh the table)", r.Epoch())
		}
		rt.Lock()
		total := 0
		for _, n := range w.attempts {
			total += n
		}
		rt.Unlock()
		if got := total - attemptsBefore; got != 2 {
			t.Errorf("post-fence deliveries = %d, want 2 (one redirect, one landed retry)", got)
		}
	})
}

// TestRouterDualHomeRedirectStormBounded: a refreshed router reaches the
// new home while that group has not fenced yet and keeps answering with
// its old epoch (e.g. its handoff stalled). The redirect storm must stop
// at the WithMaxRedirects budget with a descriptive error instead of
// spinning forever between the fresh directory and the lagging group.
func TestRouterDualHomeRedirectStormBounded(t *testing.T) {
	rt := vtime.Virtual()
	defer rt.Stop()
	net := transport.NewInproc(rt)
	w := newFakeShardWorld(t, rt, net, 2)
	c := newRouterClient(w)
	vtime.Run(rt, "main", func() {
		defer w.close()
		defer c.Close()
		r := c.Router("o").WithMaxRedirects(3).WithRedirectBackoff(time.Millisecond)
		// Directory serves epoch 2; every group still has epoch 1 installed
		// and no forwarding (the window is open but this key's chunk has not
		// landed — the lagging group can only bounce).
		w.advanceEpoch(128, false)
		if err := r.Refresh(); err != nil {
			t.Fatalf("Refresh: %v", err)
		}
		if r.Epoch() != 2 {
			t.Fatalf("Epoch after refresh = %d, want 2", r.Epoch())
		}

		_, err := r.Invoke("m", nil, WithShardKey("k1"))
		if err == nil {
			t.Fatal("Invoke succeeded against a group that never fences")
		}
		if !strings.Contains(err.Error(), "wrong-shard redirects") {
			t.Errorf("error %q does not mention the redirect budget", err)
		}
		rt.Lock()
		total := 0
		for _, n := range w.attempts {
			total += n
		}
		rt.Unlock()
		if total != 4 {
			t.Errorf("shard deliveries = %d, want 4 (initial + 3 budgeted retries)", total)
		}
	})
}

// TestRouterBackoffSingleDoublePerAttempt pins the redirect backoff
// schedule: exactly one sleep-and-double per redirect attempt, with the
// directory poll rounds reusing the current backoff instead of compounding
// it. A regression for the double-doubling bug where both the attempt path
// and every poll round multiplied the backoff, growing it 4×+ per attempt:
// with b0=4ms and 2 budgeted retries the buggy schedule slept
// 4+8+16+32+64+100 = 224ms where the intended one sleeps
// 4+8+8+8+16+16 = 60ms.
func TestRouterBackoffSingleDoublePerAttempt(t *testing.T) {
	rt := vtime.Virtual()
	defer rt.Stop()
	net := transport.NewInproc(rt)
	w := newFakeShardWorld(t, rt, net, 2)
	c := newRouterClient(w)
	vtime.Run(rt, "main", func() {
		defer w.close()
		defer c.Close()
		r := c.Router("o").WithMaxRedirects(2).WithRedirectBackoff(4 * time.Millisecond)
		if err := r.Refresh(); err != nil {
			t.Fatalf("Refresh: %v", err)
		}
		// Shards install epoch 2; the directory stays at 1 — every attempt
		// redirects and every poll round sees a too-old table, so the full
		// backoff schedule runs before the router gives up.
		rt.Lock()
		for _, gid := range w.table.Shards {
			w.installed[gid] = 2
		}
		rt.Unlock()
		t0 := rt.Now()
		if _, err := r.Invoke("m", nil, WithShardKey("k1")); err == nil {
			t.Fatal("Invoke succeeded against permanently mismatched epochs")
		}
		waited := rt.Now() - t0
		// Intended schedule: attempt sleeps 4, 8 with poll rounds at the
		// already-doubled value (8+8, 16+16) — 60ms of backoff plus a few
		// round-trip latencies.
		if waited < 60*time.Millisecond {
			t.Errorf("total wait %v, want >= 60ms (4+8+8+8+16+16)", waited)
		}
		// The double-doubling schedule slept 224ms before giving up; anything
		// in that region means the backoff compounds more than 2× per attempt.
		if waited >= 120*time.Millisecond {
			t.Errorf("total wait %v, want < 120ms — backoff compounds more than once per attempt", waited)
		}
	})
}

// TestRouterBackoffIsBoundedAndDoubles pins the backoff schedule: 2ms, 4ms,
// 8ms... capped at 100ms, all in virtual time.
func TestRouterBackoffDoubles(t *testing.T) {
	rt := vtime.Virtual()
	defer rt.Stop()
	net := transport.NewInproc(rt)
	w := newFakeShardWorld(t, rt, net, 2)
	c := newRouterClient(w)
	vtime.Run(rt, "main", func() {
		defer w.close()
		defer c.Close()
		r := c.Router("o").WithMaxRedirects(3).WithRedirectBackoff(4 * time.Millisecond)
		if err := r.Refresh(); err != nil {
			t.Fatalf("Refresh: %v", err)
		}
		rt.Lock()
		for _, gid := range w.table.Shards {
			w.installed[gid] = 2
		}
		rt.Unlock()
		t0 := rt.Now()
		if _, err := r.Invoke("m", nil, WithShardKey("k1")); err == nil {
			t.Fatal("Invoke succeeded against permanently mismatched epochs")
		}
		// 3 retries → backoffs 4 + 8 + 16 = 28ms of virtual sleep at least.
		if waited := rt.Now() - t0; waited < 28*time.Millisecond {
			t.Errorf("total backoff %v, want >= 28ms (4+8+16)", waited)
		}
	})
}
