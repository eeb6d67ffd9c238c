package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	replobj "github.com/replobj/replobj"
)

// spanRing is the traced cluster's span-ring size: the last few thousand
// requests, enough for medians and small enough to open in Perfetto. What
// the ring overwrote is reported as obs.spans_dropped.
const spanRing = 1 << 16

// scrape is a registry's Prometheus text parsed back into series values.
// The registry has no iteration API; its rendered text is its public face.
type scrape map[string]float64

func scrapeMetrics(reg *replobj.MetricsRegistry) scrape {
	out := scrape{}
	for _, line := range strings.Split(reg.Render(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i] // bucket exemplar
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

func seriesFamily(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// series returns the values of every series of a family, optionally only
// those whose label set contains label.
func (s scrape) series(family, label string) []float64 {
	var out []float64
	for name, v := range s {
		if seriesFamily(name) == family && strings.Contains(name, label) {
			out = append(out, v)
		}
	}
	return out
}

func (s scrape) sum(family string) float64 {
	var t float64
	for _, v := range s.series(family, "") {
		t += v
	}
	return t
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runTraced is the per-layer run: an untraced reference phase and a traced
// phase of a quarter of the run length each, on clusters of their own, then
// the isolated probes.
func runTraced(w *workload, rep *report, outDir string, size sizing) error {
	clients, warmup := rep.Provenance.Clients, size.count(w.warmup)
	length := size.measure / 4
	m := map[string]float64{}

	ref, err := setUp(w, rep.Seed, clients, warmup, false)
	if err != nil {
		return err
	}
	pRef, err := ref.measure(length, nil, false)
	if err == nil {
		err = phaseErr(&pRef)
	}
	if err == nil {
		err = ref.gate()
	}
	ref.tearDown()
	if err != nil {
		return fmt.Errorf("untraced reference phase: %w", err)
	}
	sRef := summarize(&pRef)

	tb, err := setUp(w, rep.Seed, clients, warmup, true)
	if err != nil {
		return err
	}
	before := scrapeMetrics(tb.metrics)
	// Gauges are sampled, through handles resolved once: the series exist
	// from the moment their replica was built.
	var logLen, inflight []interface{ Value() int64 }
	for name := range before {
		switch seriesFamily(name) {
		case "replobj_gcs_log_length":
			logLen = append(logLen, tb.metrics.Gauge(name))
		case "replobj_replica_invocations_in_flight":
			inflight = append(inflight, tb.metrics.Gauge(name))
		}
	}
	var logLenMax, inflightMax int64
	p, err := tb.measure(length, func() {
		for _, g := range logLen {
			logLenMax = max(logLenMax, g.Value())
		}
		for _, g := range inflight {
			inflightMax = max(inflightMax, g.Value())
		}
	}, false)
	if err == nil {
		err = phaseErr(&p)
	}
	after := scrapeMetrics(tb.metrics)
	spans := tb.spans.Snapshot()
	dropped := tb.spans.Dropped()
	if err == nil {
		err = tb.gate()
	}
	if err == nil {
		err = writeSpans(tb.spans, filepath.Join(outDir, w.name+".spans.json"))
	}
	tb.tearDown()
	rep.Result.Attempted, rep.Result.Failed = p.attempted, p.failed
	if err != nil {
		return fmt.Errorf("traced phase: %w", err)
	}
	s := summarize(&p)
	rep.Samples = s.samples
	ops := float64(p.ops())
	delta := func(family string) float64 { return after.sum(family) - before.sum(family) }

	// The counters the correctness gate reads exist only with a registry,
	// so this half of the gate runs here.
	m["spec.mismatches"] = delta("replobj_replica_spec_mismatches_total")
	m["transport.conn_drops"] = delta("replobj_transport_conn_drops_total")
	m["gcs.view_changes"] = delta("replobj_gcs_view_changes_total")
	redirects := delta("replobj_shard_redirects_total") + delta("replobj_shard_client_redirects_total")
	if bad := m["spec.mismatches"] + m["transport.conn_drops"] + m["gcs.view_changes"] + redirects; bad != 0 {
		err = fmt.Errorf("correctness gate: %v spec mismatches, %v connection drops, %v view changes and %v shard redirects in the measured phase, want none",
			m["spec.mismatches"], m["transport.conn_drops"], m["gcs.view_changes"], redirects)
	}

	spanMetrics(m, spans, p.startRT)
	m["client.lat_p99_us"] = sRef.p99us
	m["client.lat_p999_us"] = sRef.p999us

	m["transport.msgs_per_op"] = delta("replobj_transport_msgs_sent_total") / ops
	m["transport.bytes_per_op"] = delta("replobj_transport_bytes_sent_total") / ops
	// Ordering rounds are not counted directly: gcs counts multi-submit
	// rounds and the submits they carried, and every member delivers every
	// submit, so rounds = submits outside multi-submit rounds + those rounds.
	submits := delta("replobj_gcs_delivered_total") / replicasPerGroup
	batched, batches := delta("replobj_gcs_batched_submits_total"), delta("replobj_gcs_batches_total")
	m["gcs.ops_per_batch"] = ratio(submits, submits-batched+batches)
	m["gcs.nacks_per_kop"] = 1000 * delta("replobj_gcs_nacks_total") / ops
	m["gcs.log_len_max"] = float64(logLenMax)

	// Scheduler counters are per replica; dividing by the requests the
	// schedulers saw gives figures per executed request.
	requests := delta("replobj_sched_requests_total")
	grants := delta("replobj_sched_grants_total")
	m["adets.grants_per_op"] = ratio(grants, requests)
	m["adets.blocks_per_grant"] = ratio(delta("replobj_sched_blocks_total"), grants)
	m["adets.lane_fences_per_kop"] = 1000 * ratio(delta("replobj_sched_lane_fences_total"), requests)

	m["replica.reply_cache_hits_per_kop"] = 1000 * delta("replobj_replica_reply_cache_hits_total") / ops
	m["replica.dup_submit_replies_per_kop"] = 1000 * delta("replobj_replica_duplicate_submit_replies_total") / ops
	m["replica.checkpoint_ms_p50"] = 1000 * median(after.series("replobj_replica_checkpoint_seconds_quantile", `quantile="0.5"`))
	var snapMax float64
	for _, v := range after.series("replobj_replica_snapshot_bytes", "") {
		snapMax = max(snapMax, v)
	}
	m["replica.snapshot_kb"] = snapMax / 1024
	m["replica.inflight_max"] = float64(inflightMax)

	attempts := delta("replobj_replica_spec_attempts_total")
	m["spec.hit_ratio"] = ratio(delta("replobj_replica_spec_hits_total"), attempts)
	m["spec.abort_ratio"] = ratio(delta("replobj_replica_spec_aborts_total"), attempts)
	m["spec.hint_match_ratio"] = ratio(delta("replobj_replica_spec_hint_matches_total"), requests)

	m["shard.routed_per_op"] = delta("replobj_shard_client_routed_total") / ops
	m["shard.redirects_per_kop"] = 1000 * redirects / ops

	m["obs.trace_overhead_pct"] = 100 * ratio(sRef.opsPerS-s.opsPerS, sRef.opsPerS)
	m["obs.spans_dropped"] = float64(dropped)

	// Process figures come from the untraced phase: they are context for
	// the end-to-end numbers, which are measured with tracing off.
	phaseDiagnostics(rep.Diagnostic, &pRef, &sRef)
	for k, v := range rep.Diagnostic {
		if strings.HasPrefix(k, "process.") {
			m[k] = v
			delete(rep.Diagnostic, k)
		}
	}
	rep.Diagnostic["untraced_ops_per_s"] = sRef.opsPerS
	rep.Diagnostic["traced_ops_per_s"] = s.opsPerS

	if perr := runProbes(w, m, size); perr != nil && err == nil {
		err = fmt.Errorf("probes: %w", perr)
	}

	rep.Result.Correct = err == nil && !p.incorrect && p.failed == 0
	rep.Result.Metrics = map[string]value{}
	for _, d := range perLayer {
		rep.Result.Metrics[d.Name] = value{m[d.Name], d.Unit}
	}
	if err == nil && !rep.Result.Correct {
		err = fmt.Errorf("%d of %d invocations failed", p.failed, p.attempted)
	}
	return err
}

// spanMetrics derives the stage medians from the spans recorded since the
// phase started (runtime clock since).
func spanMetrics(m map[string]float64, spans []replobj.Span, since time.Duration) {
	type trace struct {
		rtt     *replobj.Span
		replies []replobj.Span
		stages  []replobj.Span
	}
	byName := map[string][]float64{}
	traces := map[uint64]*trace{}
	for i := range spans {
		sp := &spans[i]
		if sp.Start < since {
			continue
		}
		byName[sp.Name] = append(byName[sp.Name], float64(sp.Dur)/1e3)
		t := traces[sp.Trace]
		if t == nil {
			t = &trace{}
			traces[sp.Trace] = t
		}
		switch sp.Name {
		case "rtt":
			t.rtt = sp
		case "reply":
			t.replies = append(t.replies, *sp)
		default:
			t.stages = append(t.stages, *sp)
		}
	}
	for metric, stage := range map[string]string{
		"client.rtt_us_p50":        "rtt",
		"transport.xport_us_p50":   "xport",
		"gcs.order_us_p50":         "order",
		"gcs.batch_us_p50":         "seq.batch",
		"adets.sched_wait_us_p50":  "sched.wait",
		"adets.sched_grant_us_p50": "sched.grant",
		"replica.exec_us_p50":      "exec",
		"spec.spec_us_p50":         "spec",
	} {
		m[metric] = median(byName[stage])
	}

	// Per request: how long the client waited for the majority after the
	// first reply, and what of the round trip no stage span on the path of
	// the majority-completing replica accounts for (socket flight, decode,
	// mailbox hops, the client's wake-up).
	need := replicasPerGroup/2 + 1
	var waits, unattributed []float64
	for _, t := range traces {
		if t.rtt == nil || len(t.replies) < need {
			continue
		}
		sort.Slice(t.replies, func(i, j int) bool { return t.replies[i].Dur < t.replies[j].Dur })
		waits = append(waits, float64(t.replies[need-1].Dur-t.replies[0].Dur)/1e3)
		replicaNode, client := t.replies[need-1].Detail, t.rtt.Node
		var onPath time.Duration
		for _, sp := range t.stages {
			switch {
			case sp.Name == "xport" && sp.Node == client && sp.Detail == replicaNode,
				sp.Name == "xport" && sp.Node == replicaNode && sp.Detail == client,
				sp.Node == replicaNode && (sp.Name == "order" || sp.Name == "sched.wait" || sp.Name == "exec"):
				onPath += sp.Dur
			}
		}
		unattributed = append(unattributed, float64(t.rtt.Dur-onPath)/1e3)
	}
	m["client.reply_wait_us_p50"] = median(waits)
	m["client.unattributed_us_p50"] = median(unattributed)
}

// writeSpans writes the span ring in Chrome trace-event form, which
// Perfetto (ui.perfetto.dev) and chrome://tracing open directly.
func writeSpans(col *replobj.SpanCollector, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := col.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
