// Package bench reproduces the paper's experimental evaluation (Section 5):
// workload generators for every benchmark scenario, the measurement
// methodology (client-side invocation latency, warm-up exclusion,
// per-client averaging), and one experiment function per table and figure,
// plus the ablations listed in DESIGN.md.
//
// All experiments run on the virtual-time kernel: the simulated
// computations, network latencies and scheduler interactions compose in
// virtual time exactly as they would on the paper's testbed, while a full
// sweep finishes in seconds of host time and is reproducible. A virtual-time
// table reproduces the paper's figure; it says nothing about how fast this
// implementation runs — the wall-clock benchmark under benchmark/ does.
package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	replobj "github.com/replobj/replobj"
	"github.com/replobj/replobj/internal/client"
	"github.com/replobj/replobj/internal/vtime"
)

// Config tunes experiment size. The paper averages over at least 5000
// invocations per point and drops the first 200; the defaults here are
// smaller so the whole suite runs in seconds — crank them up with
// cmd/replbench for paper-scale runs.
type Config struct {
	// PerClient is the number of measured invocations per client.
	PerClient int
	// Warmup invocations per client are excluded from the average.
	Warmup int
	// Replicas per group (the paper uses 3).
	Replicas int
	// Latency is the one-way network latency.
	Latency time.Duration
	// Policy is the client reply-collection policy.
	Policy replobj.ReplyPolicy
	// Metrics, if non-nil, collects cluster metrics across every scenario
	// of the run (cmd/replbench prints a summary at the end).
	Metrics *replobj.MetricsRegistry
}

// Defaults returns the standard experiment configuration.
func Defaults() Config {
	return Config{
		PerClient: 60,
		Warmup:    5,
		Replicas:  3,
		Latency:   600 * time.Microsecond,
		Policy:    client.Majority,
	}
}

// Experiment is one table or figure: the id cmd/replbench -exp takes, and
// the function that produces it.
type Experiment struct {
	ID  string
	Run func(Config) (Result, error)
}

// Experiments returns the one ordered experiment table — the paper's eight
// figures and the seven ablations (DESIGN.md AB1–AB7). All, cmd/replbench
// and the root figure benchmarks read it.
func Experiments() []Experiment {
	return []Experiment{
		{"fig4a", func(c Config) (Result, error) { return Fig4(c, PatternA) }},
		{"fig4b", func(c Config) (Result, error) { return Fig4(c, PatternB) }},
		{"fig4c", func(c Config) (Result, error) { return Fig4(c, PatternC) }},
		{"fig4d", func(c Config) (Result, error) { return Fig4(c, PatternD) }},
		{"fig5a", Fig5a},
		{"fig5b", Fig5b},
		{"fig6a", Fig6a},
		{"fig6b", Fig6b},
		{"ab-pds2", AB1PDS2},
		{"ab-lsaperiod", AB2LSAPeriod},
		{"ab-reply", AB3ReplyPolicy},
		{"ab-yield", AB4MATYield},
		{"ab-pdsnested", AB5PDSNested},
		{"ab-pdsassign", AB6PDSAssignment},
		{"ab-matpredict", AB7MATPredict},
	}
}

// All runs every experiment of the table, in table order.
func All(cfg Config) ([]Result, error) {
	exps := Experiments()
	out := make([]Result, 0, len(exps))
	for _, e := range exps {
		r, err := e.Run(cfg)
		if err != nil {
			return out, fmt.Errorf("%s: %w", e.ID, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// Point is one measured coordinate of a series.
type Point struct {
	X float64
	Y float64 // mean invocation latency, milliseconds
}

// Series is one curve of a figure.
type Series struct {
	Label  string
	Points []Point
}

// Result is one reproduced table or figure.
type Result struct {
	ID     string // e.g. "fig4a"
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Format renders a result as an aligned text table (clients × strategies),
// mirroring how the paper's plots read.
func (r Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", r.ID, r.Title)
	fmt.Fprintf(&b, "%-22s", r.XLabel+" \\ "+r.YLabel)
	for _, s := range r.Series {
		fmt.Fprintf(&b, "%12s", s.Label)
	}
	b.WriteByte('\n')
	// Collect the union of X values in order.
	seen := map[float64]bool{}
	var xs []float64
	for _, s := range r.Series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	sort.Float64s(xs)
	for _, x := range xs {
		fmt.Fprintf(&b, "%-22.6g", x)
		for _, s := range r.Series {
			y, ok := s.at(x)
			if !ok {
				fmt.Fprintf(&b, "%12s", "-")
				continue
			}
			fmt.Fprintf(&b, "%12.2f", y)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders a result as comma-separated values.
func (r Result) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "x")
	for _, s := range r.Series {
		fmt.Fprintf(&b, ",%s", s.Label)
	}
	b.WriteByte('\n')
	seen := map[float64]bool{}
	var xs []float64
	for _, s := range r.Series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	sort.Float64s(xs)
	for _, x := range xs {
		fmt.Fprintf(&b, "%g", x)
		for _, s := range r.Series {
			if y, ok := s.at(x); ok {
				fmt.Fprintf(&b, ",%.3f", y)
			} else {
				fmt.Fprintf(&b, ",")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func (s Series) at(x float64) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}

// Get returns the series with the given label.
func (r Result) Get(label string) (Series, bool) {
	for _, s := range r.Series {
		if s.Label == label {
			return s, true
		}
	}
	return Series{}, false
}

// --- measurement core ---

// clientScript drives one client: it performs warmup+measured invocations
// and returns the measured per-invocation durations (empty for auxiliary
// clients such as producers whose latency is not part of the figure).
type clientScript func(rt vtime.Runtime, cl *replobj.Client, clientIdx int) ([]time.Duration, error)

// runScenario builds a fresh virtual cluster, applies setup (create groups,
// register handlers, start), runs n concurrent clients with the given
// script, and returns the mean invocation latency in milliseconds.
func runScenario(cfg Config, n int, setup func(c *replobj.Cluster) error, script clientScript) (float64, error) {
	rt := vtime.Virtual()
	defer rt.Stop()
	copts := []replobj.ClusterOption{replobj.WithLatency(cfg.Latency)}
	if cfg.Metrics != nil {
		copts = append(copts, replobj.WithMetrics(cfg.Metrics))
	}
	c := replobj.NewCluster(rt, copts...)
	var total time.Duration
	var count int
	var firstErr error
	vtime.Run(rt, "bench-main", func() {
		defer c.Close()
		if err := setup(c); err != nil {
			firstErr = err
			return
		}
		results := vtime.NewMailbox[clientResult](rt, "bench-results")
		for i := 0; i < n; i++ {
			i := i
			rt.Go(fmt.Sprintf("bench-client-%d", i), func() {
				cl := c.NewClient(fmt.Sprintf("c%d", i),
					replobj.WithReplyPolicy(cfg.Policy),
					replobj.WithInvocationTimeout(5*time.Minute))
				durs, err := script(rt, cl, i)
				results.Put(clientResult{durs: durs, err: err})
			})
		}
		for i := 0; i < n; i++ {
			res, _ := results.Get()
			if res.err != nil && firstErr == nil {
				firstErr = res.err
			}
			for _, d := range res.durs {
				total += d
				count++
			}
		}
	})
	if firstErr != nil {
		return 0, firstErr
	}
	if count == 0 {
		return 0, fmt.Errorf("bench: no samples collected")
	}
	return float64(total.Microseconds()) / float64(count) / 1000.0, nil
}

type clientResult struct {
	durs []time.Duration
	err  error
}

// timedLoop performs warmup+measured invocations of a single fixed call.
func timedLoop(rt vtime.Runtime, cfg Config, invoke func(seq int) error) ([]time.Duration, error) {
	for i := 0; i < cfg.Warmup; i++ {
		if err := invoke(i); err != nil {
			return nil, err
		}
	}
	out := make([]time.Duration, 0, cfg.PerClient)
	for i := 0; i < cfg.PerClient; i++ {
		t0 := rt.Now()
		if err := invoke(cfg.Warmup + i); err != nil {
			return nil, err
		}
		out = append(out, rt.Now()-t0)
	}
	return out, nil
}
