package replobj_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	replobj "github.com/replobj/replobj"
	"github.com/replobj/replobj/internal/replica"
	"github.com/replobj/replobj/internal/shard"
	"github.com/replobj/replobj/internal/transport"
	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

// This file is the migration torture-test suite for elastic resharding
// (Sharded.Reshard): live shard-count changes with ordered state handoff,
// the dual-home forwarding window, and the fenced cutover. The oracles are
// always the same three: key conservation (per-shard sums add up to every
// effect applied exactly once), exact per-key values (no lost or duplicated
// increments across the move), and per-shard trace-digest equality across
// replicas (migration must not cost determinism).

type reshardDriveOut struct {
	puts map[string]uint64
	err  error
}

// reshardDrivers runs n concurrent routed-put drivers over the key set
// while the caller reshards, and returns a mailbox carrying each driver's
// applied increments.
func reshardDrivers(rt *vtime.VirtualRuntime, c *replobj.Cluster, object string, names []string, n, putsEach int) *vtime.Mailbox[reshardDriveOut] {
	done := vtime.NewMailbox[reshardDriveOut](rt, "reshard-drivers")
	for d := 0; d < n; d++ {
		d := d
		rt.Go(fmt.Sprintf("reshard-driver-%d", d), func() {
			cl := c.NewClient(fmt.Sprintf("rd%d", d))
			r := cl.Router(object).WithMaxRedirects(16)
			out := reshardDriveOut{puts: make(map[string]uint64)}
			for i := 0; i < putsEach && out.err == nil; i++ {
				key := names[(i*n+d)%len(names)]
				if _, err := r.Invoke("put", u64(1), replobj.WithShardKey(key)); err != nil {
					out.err = fmt.Errorf("driver %d put %d (%s): %w", d, i, key, err)
				} else {
					out.puts[key]++
				}
				rt.Sleep(1 * time.Millisecond)
			}
			done.Put(out)
		})
	}
	return done
}

// reshardCheck runs the three oracles after a reshard: exact per-key
// values, conservation via per-shard sums, and per-shard trace-digest
// equality across replicas.
func reshardCheck(t *testing.T, c *replobj.Cluster, s *replobj.Sharded, cl *replobj.Client, want map[string]uint64, replicas int) {
	t.Helper()
	r := cl.Router(s.Object())
	var wantTotal uint64
	for key, w := range want {
		wantTotal += w
		v, err := r.Invoke("get", nil, replobj.WithShardKey(key))
		if err != nil {
			t.Fatalf("get %s: %v", key, err)
		}
		if got := fromU64(v); got != w {
			t.Errorf("%s = %d, want %d (lost or duplicated effect across the move)", key, got, w)
		}
	}
	var total uint64
	for _, gid := range s.Groups() {
		v, err := cl.Invoke(gid, "sum", nil)
		if err != nil {
			t.Fatalf("sum %s: %v", gid, err)
		}
		total += fromU64(v)
	}
	if total != wantTotal {
		t.Errorf("conservation: per-shard sums = %d, want %d", total, wantTotal)
	}
	s.EachShard(func(i int, g *replobj.Group) {
		ref := g.Trace(0)
		for rank := 1; rank < replicas; rank++ {
			if d := replobj.FirstTraceDivergence(ref, g.Trace(rank)); d != nil {
				t.Errorf("shard %d: rank 0 vs rank %d diverged: %v", i, rank, d)
			}
		}
	})
}

// TestReshardGrowLive is the headline path: a 2-shard object grows to 4
// shards while routed puts keep flowing. A router held from before the
// reshard must converge onto the new epoch through the redirect protocol,
// every driver increment must land exactly once (before the cut, through
// the dual-home forward, or redirected after the fence — never twice), and
// all four groups' replicas must stay digest-equal.
func TestReshardGrowLive(t *testing.T) {
	const (
		replicas   = 3
		keys       = 24
		seedPerKey = 2
		drivers    = 2
		putsEach   = 50
	)
	rt := vtime.Virtual()
	reg := replobj.NewMetricsRegistry()
	c := replobj.NewCluster(rt, replobj.WithMetrics(reg))
	s := shardedKV(t, c, "kv", 2, replicas, replobj.WithSchedTrace(0))

	run(rt, c, func() {
		names := make([]string, keys)
		want := make(map[string]uint64, keys)
		cl := c.NewClient("c0")
		r := cl.Router("kv")
		for i := range names {
			names[i] = fmt.Sprintf("acct-%d", i)
			for j := 0; j < seedPerKey; j++ {
				if _, err := r.Invoke("put", u64(1), replobj.WithShardKey(names[i])); err != nil {
					t.Fatalf("seed %s: %v", names[i], err)
				}
			}
			want[names[i]] = seedPerKey
		}
		if r.Epoch() != 1 {
			t.Fatalf("router epoch = %d, want 1", r.Epoch())
		}

		done := reshardDrivers(rt, c, "kv", names, drivers, putsEach)
		rt.Sleep(5 * time.Millisecond) // drivers in flight before the cut

		admin := c.NewClient("admin")
		if err := s.Reshard(admin, 4); err != nil {
			t.Fatalf("Reshard 2->4: %v", err)
		}
		for d := 0; d < drivers; d++ {
			out, _ := done.Get()
			if out.err != nil {
				t.Fatal(out.err)
			}
			for k, n := range out.puts {
				want[k] += n
			}
		}

		if s.NumShards() != 4 {
			t.Fatalf("NumShards = %d, want 4", s.NumShards())
		}
		if got := s.Table().Epoch; got != 2 {
			t.Errorf("table epoch = %d, want 2", got)
		}

		// The stale router (still epoch 1) converges through redirects and
		// reads an exact value at the new home.
		v, err := r.Invoke("get", nil, replobj.WithShardKey(names[0]))
		if err != nil {
			t.Fatalf("stale-router get: %v", err)
		}
		if got := fromU64(v); got != want[names[0]] {
			t.Errorf("stale-router get %s = %d, want %d", names[0], got, want[names[0]])
		}
		if r.Epoch() != 2 {
			t.Errorf("stale router epoch after redirect = %d, want 2", r.Epoch())
		}

		reshardCheck(t, c, s, admin, want, replicas)
	})

	// Migration really moved keys, and no group is left mid-migration.
	rendered := reg.Render()
	if !strings.Contains(rendered, "replobj_shard_migration_keys_total") {
		t.Errorf("no migration key counters registered:\n%s", grepMetrics(rendered, "migration"))
	}
	for _, line := range strings.Split(grepMetrics(rendered, "replobj_shard_migration_active"), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") && !strings.HasSuffix(line, " 0") {
			t.Errorf("migration still armed after fence: %s", line)
		}
	}
	var moved uint64
	for _, line := range strings.Split(grepMetrics(rendered, "replobj_shard_migration_keys_total"), "\n") {
		var v uint64
		var label string
		if _, err := fmt.Sscanf(line, "%s %d", &label, &v); err == nil {
			moved += v
		}
	}
	if moved == 0 {
		t.Error("replobj_shard_migration_keys_total never moved — the grow migrated no keys")
	}
	rt.Stop()
}

// TestReshardShrinkThenRegrow scales 4→2 live (retiring two groups whose
// keys must all travel) and then 2→3 again, exercising group retirement,
// name reuse on re-creation, and repeated epoch transitions on one object.
func TestReshardShrinkThenRegrow(t *testing.T) {
	const (
		replicas   = 3
		keys       = 20
		seedPerKey = 2
		putsEach   = 30
	)
	rt := vtime.Virtual()
	c := replobj.NewCluster(rt)
	s := shardedKV(t, c, "kv", 4, replicas, replobj.WithSchedTrace(0))

	run(rt, c, func() {
		names := make([]string, keys)
		want := make(map[string]uint64, keys)
		cl := c.NewClient("c0")
		r := cl.Router("kv")
		for i := range names {
			names[i] = fmt.Sprintf("acct-%d", i)
			for j := 0; j < seedPerKey; j++ {
				if _, err := r.Invoke("put", u64(1), replobj.WithShardKey(names[i])); err != nil {
					t.Fatalf("seed %s: %v", names[i], err)
				}
			}
			want[names[i]] = seedPerKey
		}

		admin := c.NewClient("admin")
		done := reshardDrivers(rt, c, "kv", names, 1, putsEach)
		rt.Sleep(3 * time.Millisecond)
		if err := s.Reshard(admin, 2); err != nil {
			t.Fatalf("Reshard 4->2: %v", err)
		}
		out, _ := done.Get()
		if out.err != nil {
			t.Fatal(out.err)
		}
		for k, n := range out.puts {
			want[k] += n
		}
		if s.NumShards() != 2 || len(s.Groups()) != 2 {
			t.Fatalf("after shrink: %d shards, groups %v", s.NumShards(), s.Groups())
		}
		if got := s.Table().Epoch; got != 2 {
			t.Errorf("epoch after shrink = %d, want 2", got)
		}
		reshardCheck(t, c, s, admin, want, replicas)

		// Regrow: the retired group names come back as fresh groups.
		if err := s.Reshard(admin, 3); err != nil {
			t.Fatalf("Reshard 2->3: %v", err)
		}
		if s.NumShards() != 3 {
			t.Fatalf("after regrow: %d shards", s.NumShards())
		}
		if got := s.Table().Epoch; got != 3 {
			t.Errorf("epoch after regrow = %d, want 3", got)
		}
		reshardCheck(t, c, s, admin, want, replicas)
	})
	rt.Stop()
}

// TestReshardSameCountBumpsEpoch: resharding to the current shard count is
// a pure epoch transition — an empty migration plan that drains
// immediately, flips the directory and fences. Values survive untouched.
func TestReshardSameCountBumpsEpoch(t *testing.T) {
	rt := vtime.Virtual()
	c := replobj.NewCluster(rt)
	s := shardedKV(t, c, "kv", 2, 3, replobj.WithSchedTrace(0))

	run(rt, c, func() {
		cl := c.NewClient("c0")
		r := cl.Router("kv")
		if _, err := r.Invoke("put", u64(9), replobj.WithShardKey("k")); err != nil {
			t.Fatalf("put: %v", err)
		}
		admin := c.NewClient("admin")
		if err := s.Reshard(admin, 2); err != nil {
			t.Fatalf("Reshard 2->2: %v", err)
		}
		if got := s.Table().Epoch; got != 2 {
			t.Errorf("epoch = %d, want 2", got)
		}
		v, err := r.Invoke("get", nil, replobj.WithShardKey("k"))
		if err != nil {
			t.Fatalf("get: %v", err)
		}
		if got := fromU64(v); got != 9 {
			t.Errorf("k = %d, want 9", got)
		}
	})
	rt.Stop()
}

// TestReshardRequiresKeyedSnapshotter: a sharded object whose state cannot
// export per-key slices must be rejected deterministically at prepare time
// — and the rejection must leave the object serving under its old table.
func TestReshardRequiresKeyedSnapshotter(t *testing.T) {
	rt := vtime.Virtual()
	c := replobj.NewCluster(rt)
	s, err := c.NewSharded("plain", 3,
		replobj.WithShards(2),
		replobj.WithState(func() any { return &ckptCounter{} }))
	if err != nil {
		t.Fatal(err)
	}
	s.Register("add", func(inv *replobj.Invocation) ([]byte, error) {
		st := inv.State().(*ckptCounter)
		if err := inv.Lock("state"); err != nil {
			return nil, err
		}
		defer func() { _ = inv.Unlock("state") }()
		st.v += fromU64(inv.Args())
		return u64(st.v), nil
	})
	s.Start()

	run(rt, c, func() {
		cl := c.NewClient("c0")
		r := cl.Router("plain")
		if _, err := r.Invoke("add", u64(1), replobj.WithShardKey("k")); err != nil {
			t.Fatalf("add: %v", err)
		}
		admin := c.NewClient("admin")
		err := s.Reshard(admin, 4)
		if err == nil {
			t.Fatal("Reshard accepted a state without KeyedSnapshotter")
		}
		if !strings.Contains(err.Error(), "KeyedSnapshotter") {
			t.Errorf("error does not name the missing interface: %v", err)
		}
		// The failed prepare armed nothing: the object keeps serving under
		// the old table and epoch.
		if got := s.Table().Epoch; got != 1 {
			t.Errorf("epoch after failed reshard = %d, want 1", got)
		}
		if v, err := r.Invoke("add", u64(1), replobj.WithShardKey("k")); err != nil {
			t.Fatalf("add after failed reshard: %v", err)
		} else if got := fromU64(v); got != 2 {
			t.Errorf("k = %d, want 2", got)
		}
	})
	rt.Stop()
}

// TestReshardWithCheckpointsDeferred: with a small checkpoint interval the
// migration window must defer snapshots (a checkpoint cut mid-handoff
// would capture half-moved state) and resume them after the fence — new
// traffic past the reshard keeps checkpointing, and values stay exact.
func TestReshardWithCheckpointsDeferred(t *testing.T) {
	const (
		replicas   = 3
		keys       = 16
		seedPerKey = 2
		putsEach   = 40
	)
	rt := vtime.Virtual()
	reg := replobj.NewMetricsRegistry()
	c := replobj.NewCluster(rt, replobj.WithMetrics(reg))
	s := shardedKV(t, c, "kv", 2, replicas,
		replobj.WithSchedTrace(0), replobj.WithCheckpointEvery(8))

	run(rt, c, func() {
		names := make([]string, keys)
		want := make(map[string]uint64, keys)
		cl := c.NewClient("c0")
		r := cl.Router("kv")
		for i := range names {
			names[i] = fmt.Sprintf("acct-%d", i)
			for j := 0; j < seedPerKey; j++ {
				if _, err := r.Invoke("put", u64(1), replobj.WithShardKey(names[i])); err != nil {
					t.Fatalf("seed %s: %v", names[i], err)
				}
			}
			want[names[i]] = seedPerKey
		}

		done := reshardDrivers(rt, c, "kv", names, 1, putsEach)
		rt.Sleep(3 * time.Millisecond)
		admin := c.NewClient("admin")
		if err := s.Reshard(admin, 4); err != nil {
			t.Fatalf("Reshard 2->4: %v", err)
		}
		out, _ := done.Get()
		if out.err != nil {
			t.Fatal(out.err)
		}
		for k, n := range out.puts {
			want[k] += n
		}

		// Post-fence traffic drives the resumed checkpoint path over the
		// migrated state on the new groups.
		for i := 0; i < 3*8; i++ {
			key := names[i%len(names)]
			if _, err := r.Invoke("put", u64(1), replobj.WithShardKey(key)); err != nil {
				t.Fatalf("post-fence put: %v", err)
			}
			want[key]++
		}
		reshardCheck(t, c, s, admin, want, replicas)
	})
	rt.Stop()
}

// TestReshardCarriesHeldRepliesToTheNewHome: the replies a source shard
// still holds for keys that move ride the handoff chunk, so a request that
// ran at the old home and is presented again at the new one — same id,
// stamped with the new epoch — is answered from the table there, by the new
// home's own replicas, and does not run twice. A numbered call's reply lands
// in its client's row at the new home: the client's next call supersedes it
// there as it would have at the old one. (The last key's request is
// unnumbered and rides the id window.)
func TestReshardCarriesHeldRepliesToTheNewHome(t *testing.T) {
	const replicas = 3
	rt := vtime.Virtual()
	net := transport.NewInproc(rt)
	c := replobj.NewCluster(rt, replobj.WithNetwork(net))
	s := shardedKV(t, c, "kv", 2, replicas, replobj.WithSchedTrace(0))
	run(rt, c, func() {
		before := s.Table()
		oldRing, newRing := shard.NewRing(before), shard.NewRing(before.Reshape(4))
		// One client per key, so that each put stays its client's latest.
		type moved struct {
			rc      rawClient
			req     replica.Request
			replies map[replobj.NodeID]replica.Reply
		}
		var moves []moved
		for i := 0; len(moves) < 3; i++ {
			key := fmt.Sprintf("acct-%d", i)
			if oldRing.HomeGroup(key) == newRing.HomeGroup(key) {
				continue
			}
			rc := rawClient{t, net.Endpoint(replobj.NodeID(fmt.Sprintf("raw%d", i)))}
			req := replica.Request{
				ID:    wire.InvocationID{Logical: wire.LogicalID(string(rc.ep.ID()) + "#1")},
				Group: oldRing.HomeGroup(key), Method: "put", Args: u64(5),
				ShardEpoch: before.Epoch, ShardKey: key, Call: uint64(1 - len(moves)/2),
			}
			moves = append(moves, moved{rc, req, rc.call(c, req)})
		}
		admin := c.NewClient("admin")
		if err := s.Reshard(admin, 4); err != nil {
			t.Fatalf("Reshard 2->4: %v", err)
		}
		for _, mv := range moves {
			again := mv.req
			again.Group, again.ShardEpoch = newRing.HomeGroup(mv.req.ShardKey), s.Table().Epoch
			for node, rep := range mv.rc.call(c, again) {
				if rep.Err != "" || fromU64(rep.Result) != 5 {
					t.Errorf("%s answered the repeated put of %s with %+v, want the first answer (5)", node, again.ShardKey, rep)
				}
			}
			v, err := admin.Router("kv").Invoke("get", nil, replobj.WithShardKey(again.ShardKey))
			if err != nil {
				t.Fatal(err)
			}
			if got := fromU64(v); got != 5 {
				t.Errorf("%s = %d after the repeated put, want 5: it ran again at the new home", again.ShardKey, got)
			}
			if again.Call == 0 {
				continue
			}
			next := again
			next.ID, next.Call, next.Args = wire.InvocationID{Logical: wire.LogicalID(string(mv.rc.ep.ID()) + "#2")}, 2, u64(1)
			for node, rep := range mv.rc.call(c, next) {
				if rep.Err != "" || fromU64(rep.Result) != 6 {
					t.Errorf("%s answered the client's next put of %s with %+v, want 6", node, next.ShardKey, rep)
				}
			}
			for node, rep := range mv.rc.call(c, again) {
				if !replica.IsExpiredDuplicate(rep.Failure()) {
					t.Errorf("%s answered the superseded put of %s with %+v, want an expired duplicate", node, again.ShardKey, rep)
				}
			}
		}
	})
}
