package replobj_test

import (
	"fmt"
	"testing"
	"time"

	replobj "github.com/replobj/replobj"
	"github.com/replobj/replobj/internal/faultnet"
	"github.com/replobj/replobj/internal/vtime"
)

// shardChaosSeed is the fixed fault-schedule seed for the sharded chaos
// run; every failure message carries it so the identical schedule can be
// replayed.
const shardChaosSeed int64 = 260808

// TestShardChaosCrossShardBank: a 2-shard × 3-replica sharded bank over a
// seeded faulty network (drops, duplicates, delays, reorders, short
// partitions). Mid-workload the test crash-stops the sequencer of shard 0
// — the home group of half the accounts — forcing fail-over while
// cross-shard transfers keep flowing through the blocking two-group
// ordered path in both directions. The oracles:
//
//	(a) at-most-once across the cross-shard path: despite client and
//	    nested retransmissions, every transfer debits and credits exactly
//	    once — checked as exact balances AND total conservation;
//	(b) per-shard trace-digest equality: within each shard group the
//	    surviving replicas agree on their schedule position for position.
func TestShardChaosCrossShardBank(t *testing.T) {
	const (
		shards   = 2
		replicas = 3
		accounts = 6
		initial  = 1000
	)
	rt := vtime.Virtual()
	c, fnet := chaosCluster(rt, faultnet.Mild(), shardChaosSeed)
	s := shardedKV(t, c, "bank", shards, replicas,
		replobj.WithSchedTrace(0),
		replobj.WithFailureDetection(true),
		replobj.WithQuorum())

	run(rt, c, func() {
		cl := c.NewClient("c0",
			replobj.WithRetransmit(300*time.Millisecond),
			replobj.WithInvocationTimeout(60*time.Second))
		r := cl.Router("bank")

		names := make([]string, accounts)
		for i := range names {
			names[i] = fmt.Sprintf("acct-%d", i)
			if _, err := r.Invoke("put", u64(initial), replobj.WithShardKey(names[i])); err != nil {
				t.Fatalf("chaos seed %d: seed %s: %v", shardChaosSeed, names[i], err)
			}
		}
		// Split accounts by home shard; the workload needs both directions.
		shard0 := replobj.ShardGroupName("bank", 0)
		var onS0, onS1 []string
		for _, n := range names {
			h, err := r.Home(n)
			if err != nil {
				t.Fatalf("chaos seed %d: home %s: %v", shardChaosSeed, n, err)
			}
			if h == shard0 {
				onS0 = append(onS0, n)
			} else {
				onS1 = append(onS1, n)
			}
		}
		if len(onS0) == 0 || len(onS1) == 0 {
			t.Fatalf("chaos seed %d: accounts did not spread over both shards (%v / %v)",
				shardChaosSeed, onS0, onS1)
		}
		a, b := onS0[0], onS1[0]

		xfer := func(from, to string, amount uint64) {
			args := append(u64(amount), []byte(to)...)
			if _, err := r.Invoke("xfer", args, replobj.WithShardKey(from)); err != nil {
				t.Fatalf("chaos seed %d: xfer %s->%s: %v", shardChaosSeed, from, to, err)
			}
		}

		// Phase 1: cross-shard traffic in both directions under PRNG faults.
		for i := 0; i < 3; i++ {
			xfer(a, b, 7)
			xfer(b, a, 3)
		}

		// Crash shard 0's sequencer (the home group of a); fail-over runs
		// while the workload continues. Requests routed to shard 0 and
		// nested credits landing there must survive the view change.
		fnet.Crash(s.Shard(0).Members()[0])
		for i := 0; i < 3; i++ {
			xfer(a, b, 2)
			xfer(b, a, 1)
		}

		// Settle: stop injecting faults, let views converge and laggards
		// catch up.
		fnet.Quiesce()
		rt.Sleep(1500 * time.Millisecond)

		// (a) Exact balances — every debit/credit applied exactly once.
		wantA := uint64(initial - 3*7 + 3*3 - 3*2 + 3*1)
		wantB := uint64(initial + 3*7 - 3*3 + 3*2 - 3*1)
		for _, chk := range []struct {
			acct string
			want uint64
		}{{a, wantA}, {b, wantB}} {
			v, err := r.Invoke("get", nil, replobj.WithShardKey(chk.acct))
			if err != nil {
				t.Fatalf("chaos seed %d: get %s: %v", shardChaosSeed, chk.acct, err)
			}
			if got := fromU64(v); got != chk.want {
				t.Errorf("chaos seed %d: %s = %d, want %d (at-most-once violated)",
					shardChaosSeed, chk.acct, got, chk.want)
			}
		}
		// ... and conservation over all shards.
		var total uint64
		for _, gid := range s.Groups() {
			v, err := cl.Invoke(gid, "sum", nil)
			if err != nil {
				t.Fatalf("chaos seed %d: sum %s: %v", shardChaosSeed, gid, err)
			}
			total += fromU64(v)
		}
		if want := uint64(accounts * initial); total != want {
			t.Errorf("chaos seed %d: total = %d, want %d (cross-shard transfer lost or duplicated funds)",
				shardChaosSeed, total, want)
		}
		rt.Sleep(100 * time.Millisecond) // drain trailing scheduler traffic

		// (b) Per-shard digest equality across the surviving replicas.
		s.EachShard(func(i int, g *replobj.Group) {
			refRank := 0
			if i == 0 {
				refRank = 1 // rank 0 of shard 0 was crashed
			}
			ref := g.Trace(refRank)
			refOrder, ok := ref.Snapshot()["order"]
			if !ok || refOrder.Count == 0 {
				t.Fatalf("chaos seed %d: shard %d rank %d ordered nothing", shardChaosSeed, i, refRank)
			}
			for rank := refRank + 1; rank < replicas; rank++ {
				if d := replobj.FirstTraceDivergence(ref, g.Trace(rank)); d != nil {
					t.Errorf("chaos seed %d: shard %d rank %d vs %d diverged: %v",
						shardChaosSeed, i, refRank, rank, d)
				}
				snap, ok := g.Trace(rank).Snapshot()["order"]
				if !ok || snap.Count != refOrder.Count {
					t.Errorf("chaos seed %d: shard %d rank %d ordered %d deliveries, rank %d ordered %d",
						shardChaosSeed, i, rank, snap.Count, refRank, refOrder.Count)
				}
			}
		})

		// The profile must actually have injected faults.
		cnt := fnet.Counts()
		if cnt.Messages == 0 ||
			cnt.Dropped+cnt.Duplicated+cnt.Delayed+cnt.Reordered+cnt.Corrupted+cnt.PartDrops == 0 {
			t.Errorf("chaos seed %d: no faults injected (%+v) — chaos run was vacuous", shardChaosSeed, cnt)
		}
	})
	rt.Stop()
}
