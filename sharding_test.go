package replobj_test

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
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

// kvState is the per-replica state of one shard of a sharded key/value
// object.
type kvState struct{ m map[string]uint64 }

// Snapshot/Restore (Snapshotter): deterministic sorted encoding, for
// checkpointed shard groups.
func (st *kvState) Snapshot() ([]byte, error) {
	keys := make([]string, 0, len(st.m))
	for k := range st.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []byte
	out = append(out, u64(uint64(len(keys)))...)
	for _, k := range keys {
		out = append(out, u64(uint64(len(k)))...)
		out = append(out, k...)
		out = append(out, u64(st.m[k])...)
	}
	return out, nil
}

func (st *kvState) Restore(b []byte) error {
	m := make(map[string]uint64)
	if len(b) < 8 {
		return fmt.Errorf("kvState: short snapshot")
	}
	n := fromU64(b[:8])
	b = b[8:]
	for i := uint64(0); i < n; i++ {
		if len(b) < 8 {
			return fmt.Errorf("kvState: truncated snapshot")
		}
		kl := fromU64(b[:8])
		b = b[8:]
		if uint64(len(b)) < kl+8 {
			return fmt.Errorf("kvState: truncated snapshot")
		}
		m[string(b[:kl])] = fromU64(b[kl : kl+8])
		b = b[kl+8:]
	}
	st.m = m
	return nil
}

// shardedKV builds and starts a sharded key/value object: "put" adds to the
// keyed slot, "get" reads it, "sum" totals the local shard's slots (used by
// conservation checks — it is invoked per shard group, unsharded).
func shardedKV(t *testing.T, c *replobj.Cluster, object string, shards, replicas int, opts ...replobj.GroupOption) *replobj.Sharded {
	t.Helper()
	s := newShardedKV(t, c, object, shards, replicas, opts...)
	s.Start()
	return s
}

// newShardedKV is shardedKV without the start, for callers that start only
// some ranks.
func newShardedKV(t *testing.T, c *replobj.Cluster, object string, shards, replicas int, opts ...replobj.GroupOption) *replobj.Sharded {
	t.Helper()
	opts = append(opts,
		replobj.WithShards(shards),
		replobj.WithState(func() any { return &kvState{m: make(map[string]uint64)} }),
	)
	s, err := c.NewSharded(object, replicas, opts...)
	if err != nil {
		t.Fatal(err)
	}
	s.Register("put", func(inv *replobj.Invocation) ([]byte, error) {
		st := inv.State().(*kvState)
		if err := inv.Lock("state"); err != nil {
			return nil, err
		}
		defer func() { _ = inv.Unlock("state") }()
		st.m[inv.ShardKey()] += fromU64(inv.Args())
		return u64(st.m[inv.ShardKey()]), nil
	})
	s.Register("get", func(inv *replobj.Invocation) ([]byte, error) {
		st := inv.State().(*kvState)
		if err := inv.Lock("state"); err != nil {
			return nil, err
		}
		defer func() { _ = inv.Unlock("state") }()
		return u64(st.m[inv.ShardKey()]), nil
	})
	s.Register("sum", func(inv *replobj.Invocation) ([]byte, error) {
		st := inv.State().(*kvState)
		if err := inv.Lock("state"); err != nil {
			return nil, err
		}
		defer func() { _ = inv.Unlock("state") }()
		var total uint64
		for _, v := range st.m {
			total += v
		}
		return u64(total), nil
	})
	// "xfer" moves amount from the routed key to the key in its args: co-homed
	// pairs update locally, remote pairs go through the blocking two-group
	// ordered path (InvokeShard), whose "credit" leg is ordered in the
	// destination shard's own stream.
	s.Register("xfer", func(inv *replobj.Invocation) ([]byte, error) {
		args := inv.Args()
		amount := fromU64(args[:8])
		to := string(args[8:])
		from := inv.ShardKey()
		fromHome, err := inv.ShardHome(from)
		if err != nil {
			return nil, err
		}
		toHome, err := inv.ShardHome(to)
		if err != nil {
			return nil, err
		}
		st := inv.State().(*kvState)
		if err := inv.Lock("state"); err != nil {
			return nil, err
		}
		if st.m[from] < amount {
			_ = inv.Unlock("state")
			return nil, fmt.Errorf("insufficient funds on %s", from)
		}
		st.m[from] -= amount
		if toHome == fromHome {
			st.m[to] += amount
			_ = inv.Unlock("state")
			return nil, nil
		}
		// Unlock before the nested invocation: the scheduler must not hold
		// the state mutex across a blocking cross-shard call.
		_ = inv.Unlock("state")
		_, err = inv.InvokeShard(to, "credit", args[:8])
		return nil, err
	})
	s.Register("credit", func(inv *replobj.Invocation) ([]byte, error) {
		st := inv.State().(*kvState)
		if err := inv.Lock("state"); err != nil {
			return nil, err
		}
		defer func() { _ = inv.Unlock("state") }()
		st.m[inv.ShardKey()] += fromU64(inv.Args())
		return u64(st.m[inv.ShardKey()]), nil
	})
	return s
}

// TestShardedRoutedInvokes drives a 4-shard × 3-replica sharded object end
// to end: routed puts and gets across many key classes, then checks (a)
// values, (b) that every shard group actually ordered work, (c) per-shard
// trace-digest equality across replicas, and (d) that no redirects were
// needed in the steady state.
func TestShardedRoutedInvokes(t *testing.T) {
	const (
		shards   = 4
		replicas = 3
		keys     = 48
		perKey   = 3
	)
	rt := vtime.Virtual()
	reg := replobj.NewMetricsRegistry()
	c := replobj.NewCluster(rt, replobj.WithMetrics(reg))
	s := shardedKV(t, c, "kv", shards, replicas, replobj.WithSchedTrace(0))

	run(rt, c, func() {
		cl := c.NewClient("c0")
		r := cl.Router("kv")
		for i := 0; i < keys; i++ {
			key := fmt.Sprintf("acct-%d", i)
			for j := 0; j < perKey; j++ {
				if _, err := r.Invoke("put", u64(1), replobj.WithShardKey(key)); err != nil {
					t.Fatalf("put %s: %v", key, err)
				}
			}
		}
		if got, want := r.Table(), s.Table(); !reflect.DeepEqual(got, want) {
			t.Errorf("router table = %+v, want %+v", got, want)
		}
		for i := 0; i < keys; i++ {
			key := fmt.Sprintf("acct-%d", i)
			v, err := r.Invoke("get", nil, replobj.WithShardKey(key))
			if err != nil {
				t.Fatalf("get %s: %v", key, err)
			}
			if got := fromU64(v); got != perKey {
				t.Errorf("%s = %d, want %d", key, got, perKey)
			}
		}

		// (b) Every shard group ordered some deliveries — the ring spread
		// the key classes rather than funneling them to one group.
		s.EachShard(func(i int, g *replobj.Group) {
			cnt, _ := g.Trace(0).Digest("order")
			if cnt == 0 {
				t.Errorf("shard %d ordered no deliveries — ring did not spread keys", i)
			}
		})

		// (c) Within each shard group, replicas agree position for position.
		s.EachShard(func(i int, g *replobj.Group) {
			ref := g.Trace(0)
			for rank := 1; rank < replicas; rank++ {
				if d := replobj.FirstTraceDivergence(ref, g.Trace(rank)); d != nil {
					t.Errorf("shard %d: rank 0 vs rank %d diverged: %v", i, rank, d)
				}
			}
		})
	})

	// (d) Steady state: no wrong-shard redirects, and routed counters moved.
	rendered := reg.Render()
	if !strings.Contains(rendered, `replobj_shard_client_routed_total{client="client/c0",object="kv"} `+fmt.Sprint(keys*perKey+keys)) {
		t.Errorf("routed counter missing or wrong:\n%s", grepMetrics(rendered, "replobj_shard_client"))
	}
	if !strings.Contains(rendered, `replobj_shard_client_redirects_total{client="client/c0",object="kv"} 0`) {
		t.Errorf("unexpected redirects in steady state:\n%s", grepMetrics(rendered, "redirects"))
	}
	rt.Stop()
}

// classedKV is a keyed counter whose requests declare their key as conflict
// class and lock only that key, so ADETS-CC runs distinct keys of one shard
// group on parallel lanes; a request without a key ("sum") declares nothing
// and is a barrier.
type classedKV struct{ m map[string]uint64 }

func (*classedKV) ConflictClasses(method string, args []byte) []string {
	if len(args) > 0 {
		return []string{"k/" + string(args)}
	}
	return nil
}

// TestShardedConcurrentDriversPerKind runs concurrent routed drivers against
// a 4-shard object under SEQ and under ADETS-CC with per-key conflict
// classes, barrier sums mixed in. Every key ends at exactly the puts its
// drivers saw succeed, the shard sums conserve the total, every shard group
// orders work, and inside each group the replicas agree position for
// position.
func TestShardedConcurrentDriversPerKind(t *testing.T) {
	const (
		shards   = 4
		replicas = 3
		drivers  = 8
		keys     = 32
		putsEach = 12
	)
	for _, kind := range []replobj.SchedulerKind{replobj.SEQ, replobj.CC} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			rt := vtime.Virtual()
			c := replobj.NewCluster(rt)
			opts := []replobj.GroupOption{
				replobj.WithShards(shards),
				replobj.WithScheduler(kind),
				replobj.WithSchedTrace(0),
				replobj.WithState(func() any { return &classedKV{m: make(map[string]uint64)} }),
			}
			if kind == replobj.CC {
				opts = append(opts, replobj.WithCCLanes(16))
			}
			s, err := c.NewSharded("kv", replicas, opts...)
			if err != nil {
				t.Fatal(err)
			}
			keyed := func(update bool) replobj.Handler {
				return func(inv *replobj.Invocation) ([]byte, error) {
					key := inv.ShardKey()
					m := replobj.MutexID("k/" + key)
					if err := inv.Lock(m); err != nil {
						return nil, err
					}
					defer func() { _ = inv.Unlock(m) }()
					st := inv.State().(*classedKV)
					if update {
						inv.Compute(500 * time.Microsecond)
						st.m[key]++
					}
					return u64(st.m[key]), nil
				}
			}
			s.Register("put", keyed(true))
			s.Register("get", keyed(false))
			s.Register("sum", func(inv *replobj.Invocation) ([]byte, error) {
				// Global: the lane barrier (or SEQ) alone orders this read.
				var total uint64
				for _, v := range inv.State().(*classedKV).m {
					total += v
				}
				return u64(total), nil
			})
			s.Start()
			groups := s.Groups()

			run(rt, c, func() {
				names := make([]string, keys)
				for i := range names {
					names[i] = fmt.Sprintf("key-%d", i)
				}
				done := vtime.NewMailbox[reshardDriveOut](rt, "drivers")
				for d := 0; d < drivers; d++ {
					d := d
					rt.Go(fmt.Sprintf("driver-%d", d), func() {
						cl := c.NewClient(fmt.Sprintf("d%d", d))
						r := cl.Router("kv")
						out := reshardDriveOut{puts: make(map[string]uint64)}
						for i := 0; i < putsEach && out.err == nil; i++ {
							key := names[(d*putsEach+i)%keys]
							if _, err := r.Invoke("put", []byte(key), replobj.WithShardKey(key)); err != nil {
								out.err = fmt.Errorf("driver %d put %s: %w", d, key, err)
							} else {
								out.puts[key]++
							}
							if i%4 == 3 && out.err == nil {
								_, out.err = cl.Invoke(groups[(d+i)%shards], "sum", nil)
							}
						}
						done.Put(out)
					})
				}
				want := make(map[string]uint64, keys)
				for d := 0; d < drivers; d++ {
					out, _ := done.Get()
					if out.err != nil {
						t.Fatal(out.err)
					}
					for k, n := range out.puts {
						want[k] += n
					}
				}

				r := c.NewClient("reader").Router("kv")
				for _, key := range names {
					v, err := r.Invoke("get", []byte(key), replobj.WithShardKey(key))
					if err != nil {
						t.Fatalf("get %s: %v", key, err)
					}
					if got := fromU64(v); got != want[key] {
						t.Errorf("%s = %d, want %d (lost or duplicated put)", key, got, want[key])
					}
				}
				sums := c.NewClient("sums")
				var total uint64
				for _, gid := range groups {
					v, err := sums.Invoke(gid, "sum", nil)
					if err != nil {
						t.Fatalf("sum %s: %v", gid, err)
					}
					total += fromU64(v)
				}
				if total != drivers*putsEach {
					t.Errorf("shard sums = %d, want %d", total, drivers*putsEach)
				}

				s.EachShard(func(i int, g *replobj.Group) {
					ref := g.Trace(0)
					if cnt, _ := ref.Digest("order"); cnt == 0 {
						t.Errorf("shard %d ordered nothing", i)
					}
					for rank := 1; rank < replicas; rank++ {
						if d := replobj.FirstTraceDivergence(ref, g.Trace(rank)); d != nil {
							t.Errorf("shard %d: rank 0 vs rank %d diverged: %v", i, rank, d)
						}
					}
				})
			})
		})
	}
}

func grepMetrics(rendered, substr string) string {
	var out []string
	for _, line := range strings.Split(rendered, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// reshardDriveOut is one driver's outcome: the puts it saw succeed per key,
// or the error that stopped it.
type reshardDriveOut struct {
	puts map[string]uint64
	err  error
}

// TestShardedMisroutedRequestRedirected: a request stamped for a key homed
// on the other shard is input from outside the program. Every replica of
// the shard it reached answers it with the same cached CodeRedirect reply,
// and a retransmission draws that reply again. A router that routes by a
// table the shards do not hold (here, a directory serving other vnode
// weights) gets the redirect back as an error at once — no backoff sleep, no
// second read of the directory, no retry. Both redirect counters move.
func TestShardedMisroutedRequestRedirected(t *testing.T) {
	const shards, replicas = 2, 3
	rt := vtime.Virtual()
	net := transport.NewInproc(rt)
	reg := replobj.NewMetricsRegistry()
	c := replobj.NewCluster(rt, replobj.WithNetwork(net), replobj.WithMetrics(reg))
	s, err := c.NewSharded("kv", replicas, replobj.WithShards(shards),
		replobj.WithState(func() any { return &kvState{m: make(map[string]uint64)} }))
	if err != nil {
		t.Fatal(err)
	}
	s.Register("put", func(inv *replobj.Invocation) ([]byte, error) {
		inv.State().(*kvState).m[inv.ShardKey()]++ // ADETS-SAT switches threads only at a lock or a nested call
		return nil, nil
	})
	s.Register("sum", func(inv *replobj.Invocation) ([]byte, error) {
		var total uint64
		for _, v := range inv.State().(*kvState).m {
			total += v
		}
		return u64(total), nil
	})
	skewed := s.Table()
	skewed.VNodes = 1
	dirReads := 0
	s.Dir().Register("get", func(inv *replobj.Invocation) ([]byte, error) {
		if inv.Replica() == s.Dir().Members()[0] {
			dirReads++
		}
		return skewed.Encode(), nil
	})
	s.Start()

	table, skewedRing := shard.NewRing(s.Table()), shard.NewRing(skewed)
	var key string
	for i := 0; key == ""; i++ {
		if k := fmt.Sprintf("k%d", i); table.HomeGroup(k) != skewedRing.HomeGroup(k) {
			key = k
		}
	}
	home, wrong := table.HomeGroup(key), skewedRing.HomeGroup(key)
	replicaRedirects := func() (n uint64) {
		s.EachShard(func(i int, g *replobj.Group) {
			for _, node := range g.Members() {
				n += reg.Counter(`replobj_shard_redirects_total{node="` + string(node) + `",shard="` + string(replobj.ShardGroupName("kv", i)) + `"}`).Value()
			}
		})
		return n
	}

	run(rt, c, func() {
		rc := rawClient{t, net.Endpoint("raw")}
		req := replica.Request{ID: wire.InvocationID{Logical: "raw", Call: 1}, Group: wrong, Method: "put", Args: u64(1),
			ShardKey: key}
		first := rc.call(c, req)
		var want replica.Reply
		for node, rep := range first {
			if rep.Code != replica.CodeRedirect || !strings.Contains(rep.Err, string(home)) {
				t.Errorf("%s answered the misrouted request with %+v, want a redirect naming %s", node, rep, home)
			}
			rep.From = ""
			if want.Err == "" {
				want = rep
			} else if !reflect.DeepEqual(rep, want) {
				t.Errorf("%s answered %+v, another replica %+v", node, rep, want)
			}
		}
		if again := rc.call(c, req); !reflect.DeepEqual(again, first) {
			t.Errorf("retransmission answered\n  %+v\nthe originals were\n  %+v", again, first)
		}
		if n := replicaRedirects(); n != replicas {
			t.Errorf("replicas counted %d redirects, want %d (one each; the retransmission is a cache hit)", n, replicas)
		}

		cl := c.NewClient("c0")
		r := cl.Router("kv")
		var ok string
		for i := 0; ok == ""; i++ {
			if k := fmt.Sprintf("k%d", i); table.HomeGroup(k) == skewedRing.HomeGroup(k) {
				ok = k
			}
		}
		t0 := rt.Now()
		if _, err := r.Invoke("put", u64(1), replobj.WithShardKey(ok)); err != nil {
			t.Fatalf("put %s: %v", ok, err)
		}
		t1 := rt.Now()
		_, err := r.Invoke("put", u64(1), replobj.WithShardKey(key))
		var e *replica.Error
		if !errors.As(err, &e) || e.Code != replica.CodeRedirect {
			t.Fatalf("routed put %s: %v, want the shard's CodeRedirect", key, err)
		}
		// The routed put that succeeded also read the directory; the
		// redirected one may take as long as a put at most.
		if took, put := rt.Now()-t1, t1-t0; took > put {
			t.Errorf("redirected Invoke took %v, a put with a directory read %v: it waited or retried", took, put)
		}
		if dirReads != 1 {
			t.Errorf("directory read %d times, want 1", dirReads)
		}
		if n := reg.Counter(`replobj_shard_client_redirects_total{client="` + string(wire.ClientID("c0")) + `",object="kv"}`).Value(); n != 1 {
			t.Errorf("client counted %d redirects, want 1", n)
		}
		if n := replicaRedirects(); n != 2*replicas {
			t.Errorf("replicas counted %d redirects, want %d", n, 2*replicas)
		}
		sums := c.NewClient("sums")
		var total uint64
		for _, gid := range s.Groups() {
			v, err := sums.Invoke(gid, "sum", nil)
			if err != nil {
				t.Fatalf("sum %s: %v", gid, err)
			}
			total += fromU64(v)
		}
		if total != 1 {
			t.Errorf("shard sums = %d, want 1: a redirected put executed", total)
		}
	})
}

// TestShardedCrossShardTransfer exercises the blocking two-group ordered
// path: transfers between accounts homed on different shards must conserve
// the total and leave both groups' replicas digest-equal.
func TestShardedCrossShardTransfer(t *testing.T) {
	const (
		shards   = 2
		replicas = 3
		accounts = 8
		initial  = 100
	)
	rt := vtime.Virtual()
	c := replobj.NewCluster(rt)
	s := shardedKV(t, c, "bank", shards, replicas, replobj.WithSchedTrace(0))

	run(rt, c, func() {
		cl := c.NewClient("c0")
		r := cl.Router("bank")
		names := make([]string, accounts)
		for i := range names {
			names[i] = fmt.Sprintf("acct-%d", i)
			if _, err := r.Invoke("put", u64(initial), replobj.WithShardKey(names[i])); err != nil {
				t.Fatalf("seed %s: %v", names[i], err)
			}
		}
		// Find a pair homed on different shards and a co-homed pair (8
		// accounts over 2 shards — the deterministic hash spreads them).
		home := make(map[string]replobj.GroupID, accounts)
		for _, n := range names {
			h, err := r.Home(n)
			if err != nil {
				t.Fatalf("home %s: %v", n, err)
			}
			home[n] = h
		}
		crossFrom, crossTo, coFrom, coTo := "", "", "", ""
		for _, a := range names {
			for _, b := range names {
				if a != b && home[a] != home[b] && crossFrom == "" {
					crossFrom, crossTo = a, b
				}
			}
		}
		// Pick the co-homed pair from accounts untouched by the cross pair
		// so the spot-check balances stay independent.
		for _, a := range names {
			if a == crossFrom || a == crossTo {
				continue
			}
			for _, b := range names {
				if b == a || b == crossFrom || b == crossTo {
					continue
				}
				if home[a] == home[b] && coFrom == "" {
					coFrom, coTo = a, b
				}
			}
		}
		if crossFrom == "" || coFrom == "" {
			t.Fatalf("could not find disjoint cross- and co-homed pairs (homes: %v)", home)
		}

		xfer := func(from, to string, amount uint64) {
			args := append(u64(amount), []byte(to)...)
			if _, err := r.Invoke("xfer", args, replobj.WithShardKey(from)); err != nil {
				t.Fatalf("xfer %s->%s: %v", from, to, err)
			}
		}
		for i := 0; i < 5; i++ {
			xfer(crossFrom, crossTo, 7)
			xfer(crossTo, crossFrom, 3)
			xfer(coFrom, coTo, 11)
		}

		// Conservation: per-shard sums add up to the seeded total.
		var total uint64
		for _, gid := range s.Groups() {
			v, err := cl.Invoke(gid, "sum", nil)
			if err != nil {
				t.Fatalf("sum %s: %v", gid, err)
			}
			total += fromU64(v)
		}
		if want := uint64(accounts * initial); total != want {
			t.Errorf("total = %d, want %d (cross-shard transfer lost or duplicated funds)", total, want)
		}

		// Spot-check balances (the pairs are disjoint by construction).
		wantBal := map[string]uint64{
			crossFrom: initial - 5*7 + 5*3,
			crossTo:   initial + 5*7 - 5*3,
			coFrom:    initial - 5*11,
			coTo:      initial + 5*11,
		}
		for acct, want := range wantBal {
			v, err := r.Invoke("get", nil, replobj.WithShardKey(acct))
			if err != nil {
				t.Fatalf("get %s: %v", acct, err)
			}
			if got := fromU64(v); got != want {
				t.Errorf("%s = %d, want %d", acct, got, want)
			}
		}

		// Digest equality on both groups — the nested credit leg is ordered
		// identically on every destination replica.
		s.EachShard(func(i int, g *replobj.Group) {
			ref := g.Trace(0)
			for rank := 1; rank < replicas; rank++ {
				if d := replobj.FirstTraceDivergence(ref, g.Trace(rank)); d != nil {
					t.Errorf("shard %d: rank 0 vs rank %d diverged: %v", i, rank, d)
				}
			}
		})
	})
	rt.Stop()
}

// TestShardedNamingRejectsAt guards the group-name grammar: "@" is the
// shard separator and cannot appear in a sharded object's name.
func TestShardedNamingRejectsAt(t *testing.T) {
	rt := vtime.Virtual()
	c := replobj.NewCluster(rt)
	if _, err := c.NewSharded("a@b", 1); err == nil {
		t.Fatal("NewSharded accepted an object name containing '@'")
	}
	rt.Stop()
}

// TestHandlerErrorCannotSpoofRuntimeCodes: the runtime's verdicts on a
// request — wrong shard, expired duplicate — travel as a reply code only
// the runtime sets. A handler that returns the very text of one gets it
// back as an ordinary application error: no redirect loop, no
// IsExpiredDuplicate.
func TestHandlerErrorCannotSpoofRuntimeCodes(t *testing.T) {
	texts := []string{
		"replica: duplicate expired: made up",
		`shard: wrong shard (key "k" is homed on kv@1)`,
	}
	spoof := func(inv *replobj.Invocation) ([]byte, error) {
		return nil, errors.New(string(inv.Args()))
	}
	check := func(t *testing.T, text string, err error) {
		t.Helper()
		if err == nil || err.Error() != text {
			t.Fatalf("error = %v, want the handler's own %q", err, text)
		}
		if replobj.IsExpiredDuplicate(err) {
			t.Errorf("handler error %q passes for the runtime's expired-duplicate verdict", text)
		}
	}

	t.Run("plain", func(t *testing.T) {
		rt := vtime.Virtual()
		c := replobj.NewCluster(rt)
		g, err := c.NewGroup("obj", 3)
		if err != nil {
			t.Fatal(err)
		}
		g.Register("spoof", spoof)
		g.Start()
		run(rt, c, func() {
			cl := c.NewClient("c0")
			for _, text := range texts {
				_, err := cl.Invoke("obj", "spoof", []byte(text))
				check(t, text, err)
			}
		})
	})

	t.Run("sharded", func(t *testing.T) {
		rt := vtime.Virtual()
		reg := replobj.NewMetricsRegistry()
		c := replobj.NewCluster(rt, replobj.WithMetrics(reg))
		s, err := c.NewSharded("kv", 3, replobj.WithShards(2))
		if err != nil {
			t.Fatal(err)
		}
		s.Register("spoof", spoof)
		s.Start()
		run(rt, c, func() {
			r := c.NewClient("c0").Router("kv")
			for _, text := range texts {
				_, err := r.Invoke("spoof", []byte(text), replobj.WithShardKey("k"))
				check(t, text, err)
			}
		})
		for _, line := range strings.Split(grepMetrics(reg.Render(), "redirects_total"), "\n") {
			if line != "" && !strings.HasPrefix(line, "#") && !strings.HasSuffix(line, " 0") {
				t.Errorf("a handler's error text was taken for a redirect: %s", line)
			}
		}
	})
}
