package bench

import (
	"fmt"
	"sort"
	"time"

	replobj "github.com/replobj/replobj"
	"github.com/replobj/replobj/internal/vtime"
)

// This file implements the latency-breakdown experiment: it reruns a
// contended lock-compute-unlock workload under every scheduling strategy
// with request tracing enabled and decomposes the end-to-end invocation
// latency into its pipeline stages (transport, total ordering, scheduler
// wait, mutex-grant wait, execution, reply collection). The per-stage
// p50/p99/p99.9 quantiles are exact sample quantiles over the recorded
// spans, so they are reproducible bit for bit under the virtual-time kernel.

// StageQuantile is the latency summary of one pipeline stage under one
// scheduling strategy.
type StageQuantile struct {
	Scheduler string
	Stage     string
	Count     int
	P50ms     float64
	P99ms     float64
	P999ms    float64
}

// stageOrder lists the span names in pipeline order, for stable reporting.
var stageOrder = []string{
	"xport", "order", "sched.wait", "sched.grant", "exec", "reply", "rtt",
}

// BreakdownClients is the client count of the latency-breakdown workload —
// enough to contend the single shared mutex under every strategy.
const BreakdownClients = 4

// LatencyBreakdown traces the contended pattern-C workload (lock m0 —
// compute — unlock m0) under every scheduler and reports per-stage latency
// quantiles. The rtt stage is the client-observed end-to-end latency; the
// other stages decompose it.
func LatencyBreakdown(cfg Config) (Result, error) {
	res := Result{
		ID:     "latency-breakdown",
		Title:  "Per-stage latency decomposition (pattern C, 1 shared mutex)",
		XLabel: "scheduler index",
		YLabel: "p50 ms",
	}
	compute := ComputeTime / 20 // 5 ms: keeps a full 9-strategy sweep quick
	p50 := map[string]Series{}
	for ki, kind := range replobj.Kinds() {
		spans := replobj.NewSpanCollector(0)
		setup := func(c *replobj.Cluster) error {
			g, err := c.NewGroup("obj", cfg.Replicas, groupOpts(kind, BreakdownClients)...)
			if err != nil {
				return err
			}
			registerLocalObject(g, compute)
			g.Start()
			return nil
		}
		script := func(rt vtime.Runtime, cl *replobj.Client, idx int) ([]time.Duration, error) {
			return timedLoop(rt, cfg, func(seq int) error {
				// Every client locks mutex 0: maximal contention, so the
				// sched.grant stage is populated for the blocking strategies.
				_, err := cl.Invoke("obj", "work", []byte{byte(PatternC), 0, 0})
				return err
			})
		}
		if _, err := runScenarioOpts(cfg, BreakdownClients,
			[]replobj.ClusterOption{replobj.WithSpans(spans)}, setup, script); err != nil {
			return res, fmt.Errorf("latency-breakdown %s: %w", kind, err)
		}
		byStage := map[string][]time.Duration{}
		for _, sp := range spans.Snapshot() {
			byStage[sp.Name] = append(byStage[sp.Name], sp.Dur)
		}
		for _, stage := range stageOrder {
			durs := byStage[stage]
			if len(durs) == 0 {
				continue
			}
			sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
			sq := StageQuantile{
				Scheduler: string(kind),
				Stage:     stage,
				Count:     len(durs),
				P50ms:     quantileMS(durs, 0.50),
				P99ms:     quantileMS(durs, 0.99),
				P999ms:    quantileMS(durs, 0.999),
			}
			res.Stages = append(res.Stages, sq)
			s := p50[stage]
			s.Label = stage
			s.Points = append(s.Points, Point{X: float64(ki), Y: sq.P50ms})
			p50[stage] = s
		}
	}
	for _, stage := range stageOrder {
		if s, ok := p50[stage]; ok {
			res.Series = append(res.Series, s)
		}
	}
	return res, nil
}

// quantileMS returns the exact q-quantile of the sorted samples in
// milliseconds (nearest-rank method).
func quantileMS(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i].Microseconds()) / 1000.0
}
