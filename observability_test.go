package replobj_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	replobj "github.com/replobj/replobj"
	"github.com/replobj/replobj/internal/adets"
	"github.com/replobj/replobj/internal/adets/sat"
	"github.com/replobj/replobj/internal/obs"
	"github.com/replobj/replobj/internal/vtime"
)

// TestScheduleDigestsAgreeAcrossReplicas drives a contended workload under
// every scheduler and asserts that the rolling schedule-trace digests of all
// three replicas agree at every compared position — the deterministic
// schedulers' correctness oracle.
func TestScheduleDigestsAgreeAcrossReplicas(t *testing.T) {
	for _, kind := range replobj.Kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			rt := vtime.Virtual()
			c := replobj.NewCluster(rt)
			g, err := c.NewGroup("log", 3, append(groupOptsFor(kind, 3),
				replobj.WithSchedTrace(0),
				replobj.WithState(func() any { return &applog{} }))...)
			if err != nil {
				t.Fatal(err)
			}
			g.Register("append", func(inv *replobj.Invocation) ([]byte, error) {
				st := inv.State().(*applog)
				inv.Compute(time.Duration(inv.Args()[1]) * time.Millisecond)
				if err := inv.Lock("log"); err != nil {
					return nil, err
				}
				defer func() { _ = inv.Unlock("log") }()
				st.entries = append(st.entries, inv.Args()[0])
				return nil, nil
			})
			g.Register("dump", func(inv *replobj.Invocation) ([]byte, error) {
				st := inv.State().(*applog)
				if err := inv.Lock("log"); err != nil {
					return nil, err
				}
				defer func() { _ = inv.Unlock("log") }()
				return append([]byte(nil), st.entries...), nil
			})
			g.Start()
			run(rt, c, func() {
				done := vtime.NewMailbox[error](rt, "done")
				for ci := 0; ci < 3; ci++ {
					ci := ci
					rt.Go("client", func() {
						cl := c.NewClient(fmt.Sprintf("c%d", ci))
						var err error
						for i := 0; i < 4 && err == nil; i++ {
							_, err = cl.Invoke("log", "append",
								[]byte{byte(ci*10 + i), byte((ci + i) % 3)})
						}
						done.Put(err)
					})
				}
				for i := 0; i < 3; i++ {
					if err, _ := done.Get(); err != nil {
						t.Fatal(err)
					}
				}
				// InvokeAll forces every replica to have executed the full
				// workload before traces are compared.
				reader := c.NewClient("reader")
				if _, err := reader.InvokeAll("log", "dump", nil); err != nil {
					t.Fatal(err)
				}
				rt.Sleep(10 * time.Millisecond) // drain trailing scheduler traffic

				ref := g.Trace(0)
				if ref == nil {
					t.Fatal("rank 0 has no trace despite WithSchedTrace")
				}
				if s, ok := ref.Snapshot()["order"]; !ok || s.Count == 0 {
					t.Fatalf("rank 0 recorded no ordered deliveries: %+v", ref.Snapshot())
				}
				for rank := 1; rank < 3; rank++ {
					if d := replobj.FirstTraceDivergence(ref, g.Trace(rank)); d != nil {
						t.Errorf("rank 0 vs rank %d: %v", rank, d)
					}
				}
			})
		})
	}
}

// TestMetricsEndToEnd checks that a cluster built with WithMetrics reports
// activity from every instrumented layer: scheduler, group communication,
// transport and replica.
func TestMetricsEndToEnd(t *testing.T) {
	rt := vtime.Virtual()
	reg := replobj.NewMetricsRegistry()
	c := replobj.NewCluster(rt, replobj.WithMetrics(reg))
	counterGroup(t, c, "cnt", 3, replobj.WithScheduler(replobj.MAT))
	run(rt, c, func() {
		cl := c.NewClient("c0")
		var introduced uint64
		for i := 0; i < 5; i++ {
			if _, err := cl.Invoke("cnt", "add", []byte{1}); err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				introduced = submitsRelayed(reg, "cnt", 3)
			}
		}
		// Only a client's first request goes to the followers too; after it
		// the relay counter stands still for as long as the client addresses
		// the sequencer (TestClientPointedAtFollower moves it).
		if got := submitsRelayed(reg, "cnt", 3); got != introduced {
			t.Errorf("submits_relayed_total went from %d to %d in steady state", introduced, got)
		}
		// Every direct message found its layer. A replica counting unknown
		// ones is talking to a peer that frames its messages differently.
		for i := 0; i < 3; i++ {
			name := fmt.Sprintf(`replobj_replica_unknown_messages_total{node="cnt/%d"}`, i)
			if got := reg.Counter(name).Value(); got != 0 {
				t.Errorf("%s = %d in steady state", name, got)
			}
		}
		// One client, five calls: one row in the at-most-once table of the
		// sequencer (which has answered; the followers may still be running
		// the last call), none in its id window.
		if rows, ids := amoRows(reg, "cnt/0", "client"), amoRows(reg, "cnt/0", "id"); rows != 1 || ids != 0 {
			t.Errorf("amo_rows on cnt/0: %d client rows, %d id rows after one client's five calls; want 1, 0", rows, ids)
		}
		// The group layer, too, keeps a row per client, not per call: one on
		// the sequencer, at most one anywhere.
		for i := 0; i < 3; i++ {
			rows := reg.Gauge(fmt.Sprintf(`replobj_gcs_id_rows{node="cnt/%d",kind="origin"}`, i)).Value()
			if rows > 1 || i == 0 && rows != 1 {
				t.Errorf("gcs id_rows on cnt/%d: %d origin rows after one client's five calls; want 1", i, rows)
			}
		}
	})
	out := reg.Render()
	for _, want := range []string{
		"replobj_sched_grants_total",
		"replobj_sched_grant_wait_seconds",
		"replobj_gcs_broadcasts_total",
		"replobj_gcs_delivered_total",
		"replobj_gcs_deliver_latency_seconds",
		"replobj_gcs_submits_relayed_total",
		`replobj_gcs_id_rows{node="cnt/0",kind="origin"}`,
		`replobj_gcs_id_rows{node="cnt/0",kind="name"}`,
		"replobj_transport_msgs_sent_total",
		"replobj_replica_invocations_in_flight",
		"replobj_replica_unknown_messages_total",
		`replobj_replica_amo_rows{node="cnt/0",kind="client"}`,
		`replobj_replica_amo_rows{node="cnt/0",kind="id"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered metrics missing %q", want)
		}
	}
}

// swapSched wraps a scheduler and perturbs its input: the 4th submitted
// request is withheld and re-submitted after the 5th, so this replica
// executes the two in the opposite order from its peers.
type swapSched struct {
	adets.Scheduler
	mu   sync.Mutex
	n    int
	held *adets.Request
}

func (s *swapSched) Submit(req adets.Request) {
	s.mu.Lock()
	s.n++
	if s.n == 4 {
		r := req
		s.held = &r
		s.mu.Unlock()
		return
	}
	var held *adets.Request
	if s.n == 5 {
		held = s.held
		s.held = nil
	}
	s.mu.Unlock()
	s.Scheduler.Submit(req)
	if held != nil {
		s.Scheduler.Submit(*held)
	}
}

// TestDivergenceInjectionDetected forces one replica's scheduling decisions
// to differ and asserts the digest comparator reports the exact total-order
// position of the first disagreement.
func TestDivergenceInjectionDetected(t *testing.T) {
	rt := vtime.Virtual()
	c := replobj.NewCluster(rt)
	g, err := c.NewGroup("cnt", 3,
		replobj.WithSchedulerFactory(func(rank int) adets.Scheduler {
			if rank == 2 {
				return &swapSched{Scheduler: sat.New()}
			}
			return sat.New()
		}),
		replobj.WithSchedTrace(0),
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
	g.Start()
	run(rt, c, func() {
		// Majority policy: ranks 0 and 1 answer while rank 2 withholds the
		// 4th request, so the client reaches the 5th invocation and the
		// wrapper can swap the two.
		cl := c.NewClient("c0")
		for i := 0; i < 6; i++ {
			if _, err := cl.Invoke("cnt", "add", []byte{1}); err != nil {
				t.Fatal(err)
			}
		}
		rt.Sleep(50 * time.Millisecond) // let rank 2 finish the reordered pair

		// The unperturbed pair must agree…
		if d := replobj.FirstTraceDivergence(g.Trace(0), g.Trace(1)); d != nil {
			t.Fatalf("ranks 0 and 1 unexpectedly diverged: %v", d)
		}
		// …and the perturbed rank must be flagged at the exact position:
		// requests 1–3 contribute grant/unlock pairs at positions 0–5 of
		// stream "mutex/state"; the swapped grant is event 6.
		d := replobj.FirstTraceDivergence(g.Trace(0), g.Trace(2))
		if d == nil {
			t.Fatal("forced divergence was not detected")
		}
		if d.Stream != "mutex/state" {
			t.Errorf("divergence stream = %q, want %q (%v)", d.Stream, "mutex/state", d)
		}
		if d.Pos != 6 {
			t.Errorf("divergence position = %d, want 6 (%v)", d.Pos, d)
		}
		if d.A == nil || d.B == nil {
			t.Fatalf("diverging events not retained: %v", d)
		}
		if d.A.Kind != obs.KindGrant || d.B.Kind != obs.KindGrant {
			t.Errorf("diverging kinds = %v/%v, want grant/grant", d.A.Kind, d.B.Kind)
		}
		if d.A.Subject == d.B.Subject {
			t.Errorf("diverging grants have identical subjects %q", d.A.Subject)
		}
	})
}
