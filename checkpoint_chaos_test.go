package replobj_test

import (
	"bytes"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	replobj "github.com/replobj/replobj"
	"github.com/replobj/replobj/internal/adets/pds"
	"github.com/replobj/replobj/internal/faultnet"
	"github.com/replobj/replobj/internal/gcs"
	"github.com/replobj/replobj/internal/transport"
	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

// ckptCounter is the counter state of the checkpoint suites, with a "wait"
// method beside add and get.
type ckptCounter struct{ v uint64 }

func (c *ckptCounter) Snapshot() ([]byte, error) { return u64(c.v), nil }
func (c *ckptCounter) Restore(b []byte) error    { c.v = fromU64(b); return nil }

var _ replobj.Snapshotter = (*ckptCounter)(nil)

func ckptCounterGroup(t *testing.T, c *replobj.Cluster, name string, n int, opts ...replobj.GroupOption) *replobj.Group {
	t.Helper()
	opts = append(opts, replobj.WithState(func() any { return &ckptCounter{} }))
	g, err := c.NewGroup(name, n, opts...)
	if err != nil {
		t.Fatal(err)
	}
	g.Register("add", func(inv *replobj.Invocation) ([]byte, error) {
		st := inv.State().(*ckptCounter)
		if err := inv.Lock("state"); err != nil {
			return nil, err
		}
		defer func() { _ = inv.Unlock("state") }()
		st.v += uint64(inv.Args()[0])
		return u64(st.v), nil
	})
	g.Register("get", func(inv *replobj.Invocation) ([]byte, error) {
		st := inv.State().(*ckptCounter)
		if err := inv.Lock("state"); err != nil {
			return nil, err
		}
		defer func() { _ = inv.Unlock("state") }()
		return u64(st.v), nil
	})
	// wait: a timed wait nobody notifies, of args[0] × 10 ms (schedulers
	// with condition variables only).
	g.Register("wait", func(inv *replobj.Invocation) ([]byte, error) {
		if err := inv.Lock("state"); err != nil {
			return nil, err
		}
		defer func() { _ = inv.Unlock("state") }()
		_, err := inv.Wait("state", "never", time.Duration(inv.Args()[0])*10*time.Millisecond)
		return nil, err
	})
	g.Start()
	return g
}

// TestCheckpointImagesEqualOnEveryReplica: three replicas of a group whose
// state holds a map, traced, cut a checkpoint every four positions. At each
// of eight checkpoints, the envelope every member serves for a NACK below
// its truncated log is the same bytes: state, at-most-once table and trace
// streams in one canonical form, whatever order a map iterates in.
func TestCheckpointImagesEqualOnEveryReplica(t *testing.T) {
	const (
		every       = 4
		checkpoints = 8
	)
	rt := vtime.Virtual()
	net := transport.NewInproc(rt)
	c := replobj.NewCluster(rt, replobj.WithNetwork(net))
	g := kcounterGroup(t, c, "kv", 3, replobj.WithScheduler(replobj.CC),
		replobj.WithSchedTrace(0), replobj.WithCheckpointEvery(every))
	run(rt, c, func() {
		probe := net.Endpoint("probe")
		defer probe.Close()
		// snapshot draws member m's checkpoint: the log below it is gone, so
		// a NACK for position 1 is answered with the envelope.
		snapshot := func(m replobj.NodeID) gcs.Snapshot {
			probe.Send(m, gcs.Nack{Group: "kv", From: probe.ID(), Want: 1})
			got := vtime.NewMailbox[gcs.Snapshot](rt, "probe")
			rt.Go("probe-recv", func() {
				for {
					msg, ok := probe.Recv()
					if !ok {
						return
					}
					if s, ok := msg.Payload.(gcs.Snapshot); ok {
						got.Put(s)
						return
					}
				}
			})
			s, ok, _ := got.GetTimeout(time.Second)
			if !ok {
				t.Fatalf("%s served no snapshot", m)
			}
			return s
		}
		cl := c.NewClient("c0")
		for k := 1; k <= checkpoints; k++ {
			for i := 0; i < every; i++ {
				key := 'a' + byte((k*every+i)%8)
				if _, err := cl.Invoke("kv", "add", []byte{key, byte(k)}); err != nil {
					t.Fatal(err)
				}
			}
			rt.Sleep(50 * time.Millisecond) // every replica reaches the checkpoint
			first := snapshot(g.Members()[0])
			if first.Seq != uint64(k*every) {
				t.Fatalf("checkpoint %d served at position %d, want %d", k, first.Seq, k*every)
			}
			for _, m := range g.Members()[1:] {
				if s := snapshot(m); s.Seq != first.Seq || !bytes.Equal(s.Data, first.Data) {
					t.Errorf("at position %d, %s serves %d bytes at %d, %s %d bytes: not the same image",
						first.Seq, m, len(s.Data), s.Seq, g.Members()[0], len(first.Data))
				}
			}
		}
	})
}

// TestChaosTruncatedLogRejoinViaSnapshot: a follower crashes, the cluster
// keeps checkpointing and truncates the ordered log past the follower's
// position, and the follower rejoins — so gap repair by retransmission is
// impossible and it must be restored by snapshot state transfer. For every
// scheduler kind the oracle is the same as the main chaos suite: trace
// digests of all five replicas (including the rejoiner) agree, and the
// retained log stays under twice the checkpoint interval.
func TestChaosTruncatedLogRejoinViaSnapshot(t *testing.T) {
	for _, kind := range replobj.Kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) { truncatedRejoinRun(t, kind) })
	}
}

func truncatedRejoinRun(t *testing.T, kind replobj.SchedulerKind) {
	const (
		replicas        = 5
		clients         = 2
		invokesPerPhase = 6
		phases          = 3
		every           = 8
	)
	rt := vtime.Virtual()
	reg := replobj.NewMetricsRegistry()
	fnet := faultnet.New(rt, transport.NewInproc(rt), faultnet.Mild(), chaosSeed)
	c := replobj.NewCluster(rt, replobj.WithNetwork(fnet), replobj.WithMetrics(reg))
	opts := append(chaosGroupOpts(kind, clients), replobj.WithCheckpointEvery(every))
	g := ckptCounterGroup(t, c, "cnt", replicas, opts...)
	members := g.Members()

	run(rt, c, func() {
		phaseN := 0
		phase := func() {
			phaseN++
			done := vtime.NewMailbox[error](rt, fmt.Sprintf("rjphase%d", phaseN))
			for ci := 0; ci < clients; ci++ {
				name := fmt.Sprintf("rj%dc%d", phaseN, ci)
				rt.Go("client/"+name, func() {
					cl := c.NewClient(name,
						replobj.WithRetransmit(300*time.Millisecond),
						replobj.WithInvocationTimeout(60*time.Second))
					var err error
					for i := 0; i < invokesPerPhase && err == nil; i++ {
						_, err = cl.Invoke("cnt", "add", []byte{1})
					}
					done.Put(err)
				})
			}
			for i := 0; i < clients; i++ {
				if err, _ := done.Get(); err != nil {
					t.Fatalf("chaos seed %d: phase %d client error: %v", chaosSeed, phaseN, err)
				}
			}
		}

		// Phase 1 with everyone up, then cut the follower off and let the
		// view change exclude it — from then on the stability watermark no
		// longer waits for it and truncation can pass its position.
		phase()
		fnet.Crash(members[3])
		rt.Sleep(600 * time.Millisecond)

		// Two more phases cross several checkpoint boundaries, moving the
		// log floor well past everything the follower has seen.
		phase()
		phase()

		// Rejoin: the follower's tail is gone, so the sync round (or its
		// own NACK) must answer with the newest checkpoint instead.
		fnet.Restore(members[3])
		rt.Sleep(1200 * time.Millisecond)
		fnet.Quiesce()
		rt.Sleep(1500 * time.Millisecond)

		reader := c.NewClient("reader",
			replobj.WithRetransmit(300*time.Millisecond),
			replobj.WithInvocationTimeout(60*time.Second))
		v, err := reader.Invoke("cnt", "get", nil)
		if err != nil {
			t.Fatalf("chaos seed %d: final get: %v", chaosSeed, err)
		}
		want := uint64(clients * invokesPerPhase * phases)
		if got := fromU64(v); got != want {
			t.Errorf("chaos seed %d: counter = %d, want %d", chaosSeed, got, want)
		}
		rt.Sleep(100 * time.Millisecond)

		// Non-vacuousness: the rejoiner really came back through state
		// transfer, not ordinary log replay.
		installed := reg.Counter(`replobj_gcs_snapshots_installed_total{node="` + string(members[3]) + `"}`).Value()
		if installed == 0 {
			t.Errorf("chaos seed %d: rejoiner caught up without a snapshot — log was not truncated past its position", chaosSeed)
		}

		// Bounded memory: every member's retained log is under twice the
		// checkpoint interval once the view has settled.
		for rank := 0; rank < replicas; rank++ {
			if n := g.Replica(rank).Member().LogLen(); n > 2*every {
				t.Errorf("chaos seed %d: rank %d retains %d ordered messages, want <= %d", chaosSeed, rank, n, 2*every)
			}
		}

		// What a replica retains for its clients is a function of the stream:
		// the rejoiner, whose table came with the snapshot, holds as many
		// replies as the replicas that built theirs request by request.
		for rank := 1; rank < replicas; rank++ {
			if n, ref := g.Replica(rank).CacheSize(), g.Replica(0).CacheSize(); n != ref {
				t.Errorf("chaos seed %d: rank %d holds %d replies, rank 0 holds %d", chaosSeed, rank, n, ref)
			}
		}

		// All five replicas — the rejoiner included — agree on the schedule
		// trace. PDS kinds compare the ordered stream only (see the chaos
		// suite header for why round grants may legitimately differ).
		pdsKind := kind == replobj.PDS || kind == replobj.PDS2
		ref := g.Trace(0)
		refOrder, ok := ref.Snapshot()["order"]
		if !ok || refOrder.Count == 0 {
			t.Fatalf("chaos seed %d: rank 0 recorded no ordered deliveries", chaosSeed)
		}
		for rank := 1; rank < replicas; rank++ {
			if pdsKind {
				cnt, dig := g.Trace(rank).Digest("order")
				if cnt != refOrder.Count || dig != refOrder.Digest {
					t.Errorf("chaos seed %d: rank %d order stream (count %d digest %x) != rank 0 (count %d digest %x)",
						chaosSeed, rank, cnt, dig, refOrder.Count, refOrder.Digest)
				}
				continue
			}
			if d := replobj.FirstTraceDivergence(ref, g.Trace(rank)); d != nil {
				t.Errorf("chaos seed %d: rank 0 vs rank %d diverged: %v", chaosSeed, rank, d)
			}
		}
	})
	rt.Stop()
}

// TestPDSArtificialRequestsFullStreamDeterminism: with the paper's
// Section 4.2 "artificial requests" option, the synchronized (queue-mutex)
// assignment no longer races request arrival against the empty-queue check
// — every worker wake-up happens at a totally ordered point and the k-th
// pop lands on worker k mod N. Full trace streams — the queue-mutex grant
// stream included, which is exactly where plain synchronized assignment
// legitimately diverges and the main chaos suite falls back to comparing
// the ordered stream alone — must therefore agree across replicas even
// under chaos-skewed delivery. The workload takes no object locks: grants
// of object mutexes are made per round in thread-ID order, so their
// interleaving across rounds remains a replica-local matter for every PDS
// mode (same as round-robin assignment); the Section 4.2 option is about
// the request-to-worker handoff, and that is what must be stream-pure.
func TestPDSArtificialRequestsFullStreamDeterminism(t *testing.T) {
	for _, kind := range []replobj.SchedulerKind{replobj.PDS, replobj.PDS2} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			const (
				replicas = 5
				clients  = 3
				invokes  = 6
			)
			rt := vtime.Virtual()
			c, fnet := chaosCluster(rt, faultnet.Mild(), chaosSeed)
			g, err := c.NewGroup("cnt", replicas,
				replobj.WithScheduler(kind),
				replobj.WithState(func() any { return &counter{} }),
				replobj.WithSchedTrace(0),
				replobj.WithFailureDetection(true),
				replobj.WithQuorum(),
				replobj.WithPDSConfig(pds.Config{PoolSize: clients, ArtificialRequests: true}))
			if err != nil {
				t.Fatal(err)
			}
			// Lock-free handlers: the adds commute and the queue handoff is
			// the only scheduler decision in play. They take no object lock,
			// so the pool's workers may run two at once: the counter is
			// updated atomically.
			g.Register("add", func(inv *replobj.Invocation) ([]byte, error) {
				st := inv.State().(*counter)
				return u64(atomic.AddUint64(&st.v, uint64(inv.Args()[0]))), nil
			})
			g.Register("get", func(inv *replobj.Invocation) ([]byte, error) {
				st := inv.State().(*counter)
				return u64(atomic.LoadUint64(&st.v)), nil
			})
			g.Start()
			run(rt, c, func() {
				done := vtime.NewMailbox[error](rt, "artreq")
				for ci := 0; ci < clients; ci++ {
					name := fmt.Sprintf("ar-c%d", ci)
					rt.Go("client/"+name, func() {
						cl := c.NewClient(name,
							replobj.WithRetransmit(300*time.Millisecond),
							replobj.WithInvocationTimeout(60*time.Second))
						var err error
						for i := 0; i < invokes && err == nil; i++ {
							_, err = cl.Invoke("cnt", "add", []byte{1})
						}
						done.Put(err)
					})
				}
				for i := 0; i < clients; i++ {
					if err, _ := done.Get(); err != nil {
						t.Fatalf("chaos seed %d: client error: %v", chaosSeed, err)
					}
				}
				fnet.Quiesce()
				rt.Sleep(1500 * time.Millisecond)

				reader := c.NewClient("reader",
					replobj.WithRetransmit(300*time.Millisecond),
					replobj.WithInvocationTimeout(60*time.Second))
				v, err := reader.Invoke("cnt", "get", nil)
				if err != nil {
					t.Fatalf("chaos seed %d: final get: %v", chaosSeed, err)
				}
				if got := fromU64(v); got != clients*invokes {
					t.Errorf("chaos seed %d: counter = %d, want %d", chaosSeed, got, clients*invokes)
				}
				rt.Sleep(100 * time.Millisecond)

				ref := g.Trace(0)
				for rank := 1; rank < replicas; rank++ {
					if d := replobj.FirstTraceDivergence(ref, g.Trace(rank)); d != nil {
						t.Errorf("chaos seed %d: rank 0 vs rank %d diverged on full streams: %v", chaosSeed, rank, d)
					}
				}
				if cnt := fnet.Counts(); cnt.Messages == 0 ||
					cnt.Dropped+cnt.Duplicated+cnt.Delayed+cnt.Reordered+cnt.Corrupted+cnt.PartDrops == 0 {
					t.Errorf("chaos seed %d: no faults injected (%+v) — run was vacuous", chaosSeed, cnt)
				}
			})
			rt.Stop()
		})
	}
}

// TestChaosRejoinerBroadcastDuringPartition: a follower of a timed-wait
// group is cut off while a wait times out, so it broadcasts the timeout —
// every replica does, and the others order one copy — into a partition. The
// view excludes it, checkpoints move the log floor past it, and it rejoins
// by snapshot, which skips the Ordered of its own broadcast. Its broadcast
// is ordered once, the digests agree, and it sends no submit once it has
// caught up: its FD tick would resend every ResubmitAfter anything still
// cached, so silence over a second is the cache emptied (the sequencer
// answered the resend with the position).
func TestChaosRejoinerBroadcastDuringPartition(t *testing.T) {
	const (
		replicas = 3
		every    = 8
		wait     = 200 * time.Millisecond // "wait" with argument 20
	)
	rt := vtime.Virtual()
	reg := replobj.NewMetricsRegistry()
	fnet := faultnet.New(rt, transport.NewInproc(rt), faultnet.Mild(), chaosSeed)
	rejoiner := wire.ReplicaID("cnt", 2)
	var counting, resent atomic.Int64
	watched := transport.NewWrappedNetwork(fnet, func(from, _ wire.NodeID, p any, _ func()) bool {
		if _, ok := p.(gcs.Submit); ok && from == rejoiner && counting.Load() == 1 {
			resent.Add(1)
		}
		return false
	})
	c := replobj.NewCluster(rt, replobj.WithNetwork(watched), replobj.WithMetrics(reg))
	g := ckptCounterGroup(t, c, "cnt", replicas,
		append(chaosGroupOpts(replobj.ADSAT, 1), replobj.WithCheckpointEvery(every))...)
	if g.Members()[2] != rejoiner {
		t.Fatalf("rank 2 is %s, want %s", g.Members()[2], rejoiner)
	}

	run(rt, c, func() {
		invoke := func(name, method string, n int) {
			cl := c.NewClient(name,
				replobj.WithRetransmit(300*time.Millisecond),
				replobj.WithInvocationTimeout(60*time.Second))
			for i := 0; i < n; i++ {
				if _, err := cl.Invoke("cnt", method, []byte{1}); err != nil {
					t.Fatalf("chaos seed %d: %s %s %d: %v", chaosSeed, name, method, i, err)
				}
			}
		}
		invoke("warm", "add", 4)

		// The wait is ordered everywhere; the follower is cut off before its
		// timer fires, so it broadcasts the timeout into the partition.
		waited := vtime.NewMailbox[bool](rt, "waited")
		rt.Go("client/waiter", func() {
			cl := c.NewClient("waiter", replobj.WithInvocationTimeout(60*time.Second))
			_, err := cl.Invoke("cnt", "wait", []byte{byte(wait / (10 * time.Millisecond))})
			waited.Put(err == nil)
		})
		rt.Sleep(wait / 4)
		fnet.Crash(rejoiner)
		if ok, _ := waited.Get(); !ok {
			t.Fatalf("chaos seed %d: the wait failed", chaosSeed)
		}
		rt.Sleep(600 * time.Millisecond) // the view excludes it

		invoke("past", "add", 3*every) // checkpoints move the floor past it
		fnet.Restore(rejoiner)
		rt.Sleep(1200 * time.Millisecond)
		fnet.Quiesce()
		rt.Sleep(1500 * time.Millisecond)
		if n := reg.Counter(`replobj_gcs_snapshots_installed_total{node="` + string(rejoiner) + `"}`).Value(); n == 0 {
			t.Fatalf("chaos seed %d: the rejoiner caught up without a snapshot — scenario vacuous", chaosSeed)
		}
		invoke("reader", "get", 1) // its first copy goes to every member, the rejoiner relays it
		rt.Sleep(100 * time.Millisecond)

		counting.Store(1)
		rt.Sleep(time.Second)
		counting.Store(0)
		if n := resent.Load(); n != 0 {
			t.Errorf("chaos seed %d: the rejoiner sent %d submits in a quiet second after catching up, want 0", chaosSeed, n)
		}

		// The timeout every replica broadcast took one position.
		timeouts := map[string]int{}
		for _, ev := range g.Trace(0).Snapshot()["order"].Events {
			if strings.HasPrefix(ev.Subject, "adets-timeout/") {
				timeouts[ev.Subject]++
			}
		}
		if len(timeouts) == 0 {
			t.Errorf("chaos seed %d: no timeout was ordered — scenario vacuous", chaosSeed)
		}
		for id, n := range timeouts {
			if n != 1 {
				t.Errorf("chaos seed %d: %s ordered %d times, want once", chaosSeed, id, n)
			}
		}
		for rank := 1; rank < replicas; rank++ {
			if d := replobj.FirstTraceDivergence(g.Trace(0), g.Trace(rank)); d != nil {
				t.Errorf("chaos seed %d: rank 0 vs rank %d diverged: %v", chaosSeed, rank, d)
			}
		}
	})
}
