package replobj_test

import (
	"fmt"
	"testing"
	"time"

	replobj "github.com/replobj/replobj"
	"github.com/replobj/replobj/internal/faultnet"
	"github.com/replobj/replobj/internal/transport"
	"github.com/replobj/replobj/internal/vtime"
)

// spanChaosGroupOpts is chaosGroupOpts with the quorum guard kept.
func spanChaosGroupOpts(kind replobj.SchedulerKind, clients int) []replobj.GroupOption {
	return append(chaosGroupOpts(kind, clients), replobj.WithQuorum())
}

// assertSpanChains checks every completed invocation's trace in the
// collector: an rtt root whose id is the trace id, every pipeline stage
// present at least once, and no dangling parent links. It returns the
// number of roots seen.
func assertSpanChains(t *testing.T, kind replobj.SchedulerKind, spans *replobj.SpanCollector) (roots int) {
	t.Helper()
	traces := byTrace(spans.Snapshot())
	for tid, sps := range traces {
		var root *replobj.Span
		ids := map[uint64]bool{}
		have := map[string]int{}
		for i := range sps {
			ids[sps[i].ID] = true
			have[sps[i].Name]++
			if sps[i].Name == "rtt" {
				root = &sps[i]
			}
		}
		if root == nil {
			t.Errorf("%s: trace %016x has no rtt root", kind, tid)
			continue
		}
		roots++
		for _, stage := range []string{"xport", "order", "sched.wait", "exec", "reply"} {
			if have[stage] == 0 {
				t.Errorf("%s: trace %016x (%s): missing stage %q (have %v)",
					kind, tid, root.Detail, stage, have)
			}
		}
		for _, sp := range sps {
			if sp.Parent != 0 && !ids[sp.Parent] {
				t.Errorf("%s: trace %016x: span %s/%s has dangling parent %016x",
					kind, tid, sp.Name, sp.Node, sp.Parent)
			}
		}
	}
	return roots
}

// TestChaosSpanChainsAllSchedulers: every scheduler kind runs a 5-replica
// contended workload over a seeded faulty network (drops, duplicates,
// delays, reorders, corruption) with request tracing on. Despite
// retransmissions and duplicate deliveries, every completed invocation must
// leave a complete span
// chain — rtt root, transport, total ordering, scheduler wait, execution
// and reply — with all parent links resolving inside the trace.
func TestChaosSpanChainsAllSchedulers(t *testing.T) {
	const (
		replicas = 5
		clients  = 2
		invokes  = 6
	)
	for _, kind := range replobj.Kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			rt := vtime.Virtual()
			spans := replobj.NewSpanCollector(1 << 16)
			fnet := faultnet.New(rt, transport.NewInproc(rt), faultnet.Mild(), chaosSeed)
			c := replobj.NewCluster(rt,
				replobj.WithNetwork(fnet), replobj.WithSpans(spans))
			counterGroup(t, c, "cnt", replicas, spanChaosGroupOpts(kind, clients)...)

			run(rt, c, func() {
				done := vtime.NewMailbox[error](rt, "spanchaos")
				for ci := 0; ci < clients; ci++ {
					name := fmt.Sprintf("sc-c%d", ci)
					rt.Go("client/"+name, func() {
						// Majority policy: with failure detection on, the
						// view may temporarily exclude a replica, so waiting
						// for all five could never complete. A majority
						// certifies ordering, execution and reply collection
						// — the full chain — on at least three replicas.
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
				rt.Sleep(100 * time.Millisecond) // drain trailing replies

				if roots := assertSpanChains(t, kind, spans); roots != clients*invokes {
					t.Errorf("chaos seed %d: %d rtt roots, want %d", chaosSeed, roots, clients*invokes)
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

// TestChaosSpansSurviveSnapshotRejoin: a follower is cut off, the cluster
// keeps checkpointing until the ordered log is truncated past the
// follower's position, and the follower rejoins via snapshot state
// transfer — all with tracing on. Invocations completed after the rejoin
// must still produce complete span chains (the restored replica's exec and
// reply spans included), i.e. trace contexts survive the snapshot-install
// path, not just steady-state ordering.
func TestChaosSpansSurviveSnapshotRejoin(t *testing.T) {
	const (
		replicas = 5
		clients  = 2
		invokes  = 6
		every    = 8
	)
	rt := vtime.Virtual()
	spans := replobj.NewSpanCollector(1 << 16)
	reg := replobj.NewMetricsRegistry()
	fnet := faultnet.New(rt, transport.NewInproc(rt), faultnet.Mild(), chaosSeed)
	c := replobj.NewCluster(rt,
		replobj.WithNetwork(fnet), replobj.WithMetrics(reg), replobj.WithSpans(spans))
	opts := append(spanChaosGroupOpts(replobj.CC, clients),
		replobj.WithCheckpointEvery(every))
	g := ckptCounterGroup(t, c, "cnt", replicas, opts...)
	members := g.Members()

	run(rt, c, func() {
		phaseN := 0
		phase := func(policy replobj.ReplyPolicy) {
			phaseN++
			done := vtime.NewMailbox[error](rt, fmt.Sprintf("sprj%d", phaseN))
			for ci := 0; ci < clients; ci++ {
				name := fmt.Sprintf("sprj%dc%d", phaseN, ci)
				rt.Go("client/"+name, func() {
					cl := c.NewClient(name,
						replobj.WithReplyPolicy(policy),
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
					t.Fatalf("chaos seed %d: phase %d client error: %v", chaosSeed, phaseN, err)
				}
			}
		}

		// Majority while the follower is down (All could never complete),
		// then cross several checkpoint intervals so the log floor moves
		// past everything the follower has seen.
		phase(replobj.Majority)
		fnet.Crash(members[3])
		rt.Sleep(600 * time.Millisecond)
		phase(replobj.Majority)
		phase(replobj.Majority)

		// Rejoin through snapshot state transfer, then quiesce the faults.
		fnet.Restore(members[3])
		rt.Sleep(1200 * time.Millisecond)
		fnet.Quiesce()
		rt.Sleep(1500 * time.Millisecond)

		installed := reg.Counter(`replobj_gcs_snapshots_installed_total{node="` + string(members[3]) + `"}`).Value()
		if installed == 0 {
			t.Fatalf("chaos seed %d: rejoiner caught up without a snapshot install — scenario vacuous", chaosSeed)
		}

		// Post-rejoin phase with policy All: completion requires the
		// restored replica to execute and answer, so its spans must appear.
		spans.Reset()
		phase(replobj.All)
		rt.Sleep(100 * time.Millisecond)

		roots := assertSpanChains(t, replobj.CC, spans)
		if roots != clients*invokes {
			t.Errorf("chaos seed %d: %d rtt roots after rejoin, want %d", chaosSeed, roots, clients*invokes)
		}
		// The rejoiner itself contributed exec spans to the new traces.
		var rejoinExecs int
		for _, sp := range spans.Snapshot() {
			if sp.Name == "exec" && sp.Node == string(members[3]) {
				rejoinExecs++
			}
		}
		if rejoinExecs == 0 {
			t.Errorf("chaos seed %d: snapshot-restored replica recorded no exec spans", chaosSeed)
		}
	})
	rt.Stop()
}
