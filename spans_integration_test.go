package replobj_test

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	replobj "github.com/replobj/replobj"
	"github.com/replobj/replobj/internal/obs"
	"github.com/replobj/replobj/internal/obs/tracing"
	"github.com/replobj/replobj/internal/vtime"
)

// fetchSpans retrieves the span ring through the /spans endpoint — the same
// path an operator uses — and decodes the JSON document.
func fetchSpans(t *testing.T, spans *replobj.SpanCollector) []replobj.Span {
	t.Helper()
	h := obs.Handler(nil, nil, spans)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/spans?format=json", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /spans: status %d", rec.Code)
	}
	var doc struct {
		Count   int            `json:"count"`
		Dropped uint64         `json:"dropped"`
		Spans   []tracing.Span `json:"spans"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("decode /spans: %v", err)
	}
	if doc.Dropped != 0 {
		t.Fatalf("span ring dropped %d spans; grow the ring for this test", doc.Dropped)
	}
	return doc.Spans
}

// byTrace groups spans per trace id.
func byTrace(spans []replobj.Span) map[uint64][]replobj.Span {
	out := map[uint64][]replobj.Span{}
	for _, sp := range spans {
		out[sp.Trace] = append(out[sp.Trace], sp)
	}
	return out
}

// classedCounter is a counter whose methods a and b declare one conflict
// class each, ca and cb. Only ADETS-CC reads them.
type classedCounter struct{ counter }

func (*classedCounter) ConflictClasses(method string, _ []byte) []string {
	if method == "a" || method == "b" {
		return []string{"c" + method}
	}
	return nil
}

// TestSpanChainEndToEnd runs a contended workload on a 5-replica group
// under SEQ and ADETS-CC with request tracing on and asserts, per
// completed invocation, the full span chain of the pipeline — submit
// (rtt), transport, total ordering, scheduler wait, execution, reply —
// with every stage contained in the client-observed end-to-end window and
// every parent link resolving inside the trace.
//
// The ADETS-CC group mis-declares the two methods into disjoint conflict
// classes while both lock the same mutex, so its lanes run them in
// parallel and the defensive mutex path blocks: the chain then also
// carries a sched.grant span (the grant wait the paper's Section 4
// decomposition attributes to synchronization, not queueing).
func TestSpanChainEndToEnd(t *testing.T) {
	const replicas = 5
	for _, tc := range []struct {
		kind      replobj.SchedulerKind
		wantGrant bool
	}{
		{replobj.SEQ, false},
		{replobj.CC, true},
	} {
		tc := tc
		t.Run(string(tc.kind), func(t *testing.T) {
			rt := vtime.Virtual()
			spans := replobj.NewSpanCollector(1 << 16)
			c := replobj.NewCluster(rt, replobj.WithSpans(spans))
			g, err := c.NewGroup("obj", replicas,
				replobj.WithScheduler(tc.kind),
				replobj.WithState(func() any { return &classedCounter{} }))
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range []string{"a", "b"} {
				g.Register(m, func(inv *replobj.Invocation) ([]byte, error) {
					st := inv.State().(*classedCounter)
					if err := inv.Lock("state"); err != nil {
						return nil, err
					}
					defer func() { _ = inv.Unlock("state") }()
					inv.Compute(2 * time.Millisecond)
					st.v++
					return u64(st.v), nil
				})
			}
			g.Start()
			run(rt, c, func() {
				done := vtime.NewMailbox[error](rt, "done")
				for ci, method := range []string{"a", "b"} {
					ci, method := ci, method
					rt.Go("client", func() {
						// Policy All: the rtt window closes only after every
						// replica answered, so each stage of the chain must
						// fit inside it.
						cl := c.NewClient(fmt.Sprintf("c%d", ci),
							replobj.WithReplyPolicy(replobj.All))
						var err error
						for i := 0; i < 4 && err == nil; i++ {
							_, err = cl.Invoke("obj", method, nil)
						}
						done.Put(err)
					})
				}
				for i := 0; i < 2; i++ {
					if err, _ := done.Get(); err != nil {
						t.Fatal(err)
					}
				}
			})

			traces := byTrace(fetchSpans(t, spans))
			roots := 0
			grants := 0
			for tid, sps := range traces {
				var root *replobj.Span
				ids := map[uint64]bool{}
				for i := range sps {
					ids[sps[i].ID] = true
					if sps[i].Name == "rtt" {
						root = &sps[i]
					}
				}
				if root == nil {
					// Traces without an rtt root belong to invocations whose
					// client gave up or to internal traffic; none expected
					// here.
					t.Errorf("trace %016x has no rtt root span", tid)
					continue
				}
				roots++
				if root.ID != tid {
					t.Errorf("trace %016x: root span id = %016x, want the trace id", tid, root.ID)
				}
				// The full chain: every stage recorded at least once.
				have := map[string]int{}
				for _, sp := range sps {
					have[sp.Name]++
				}
				for _, stage := range []string{"xport", "order", "sched.wait", "exec", "reply"} {
					if have[stage] == 0 {
						t.Errorf("trace %016x (%s): missing stage %q (have %v)", tid, root.Detail, stage, have)
					}
				}
				// Replication cardinality: with 5 replicas and policy All,
				// every replica executes and answers.
				if have["exec"] != replicas {
					t.Errorf("trace %016x: %d exec spans, want %d", tid, have["exec"], replicas)
				}
				if have["reply"] != replicas {
					t.Errorf("trace %016x: %d reply spans, want %d", tid, have["reply"], replicas)
				}
				grants += have["sched.grant"]
				end := root.Start + root.Dur
				for _, sp := range sps {
					// Every stage lies within the measured end-to-end window…
					if sp.Start < root.Start || sp.Start+sp.Dur > end {
						t.Errorf("trace %016x: span %s/%s [%v,%v] outside rtt window [%v,%v]",
							tid, sp.Name, sp.Node, sp.Start, sp.Start+sp.Dur, root.Start, end)
					}
					// …and parent links resolve inside the trace.
					if sp.Parent != 0 && !ids[sp.Parent] {
						t.Errorf("trace %016x: span %s/%s has dangling parent %016x",
							tid, sp.Name, sp.Node, sp.Parent)
					}
				}
			}
			if roots != 8 {
				t.Errorf("found %d rtt roots, want 8 (2 clients × 4 invocations)", roots)
			}
			if tc.wantGrant && grants == 0 {
				t.Errorf("%s: no sched.grant span despite cross-class mutex contention", tc.kind)
			}
			if !tc.wantGrant && grants != 0 {
				t.Errorf("%s: unexpected sched.grant spans (%d) — SEQ never blocks on mutexes", tc.kind, grants)
			}
		})
	}
}

// TestSpanStageMetricsBridge: with metrics AND tracing enabled, every
// recorded span feeds the replobj_span_stage_seconds histogram family, so
// /metrics carries the per-stage decomposition — streaming quantile gauges
// included — and bucket lines carry trace-id exemplars.
func TestSpanStageMetricsBridge(t *testing.T) {
	rt := vtime.Virtual()
	reg := replobj.NewMetricsRegistry()
	spans := replobj.NewSpanCollector(0)
	c := replobj.NewCluster(rt, replobj.WithMetrics(reg), replobj.WithSpans(spans))
	counterGroup(t, c, "cnt", 3, replobj.WithScheduler(replobj.SEQ))
	run(rt, c, func() {
		cl := c.NewClient("c0")
		for i := 0; i < 3; i++ {
			if _, err := cl.Invoke("cnt", "add", []byte{1}); err != nil {
				t.Fatal(err)
			}
		}
	})
	out := reg.Render()
	for _, stage := range []string{"rtt", "exec", "sched.wait", "order", "xport", "reply"} {
		if !strings.Contains(out, fmt.Sprintf(`replobj_span_stage_seconds_bucket{stage=%q`, stage)) {
			t.Errorf("metrics missing span stage histogram for %q", stage)
		}
	}
	if !strings.Contains(out, `replobj_span_stage_seconds_quantile{stage="rtt"`) {
		t.Error("metrics missing streaming quantile gauges for the rtt stage")
	}
	if !strings.Contains(out, `# {trace_id="`) {
		t.Error("metrics missing trace-id exemplars on histogram buckets")
	}
}
