package bench

import (
	"fmt"
	"time"

	replobj "github.com/replobj/replobj"
	"github.com/replobj/replobj/internal/adets/pds"
	"github.com/replobj/replobj/internal/client"
	"github.com/replobj/replobj/internal/vtime"
)

// The ablation experiments isolate the design choices the paper discusses;
// DESIGN.md lists them as AB1–AB6.

// AB1PDS2 compares PDS-1 and PDS-2 on the double-lock pattern (two mutex
// acquisitions per request): PDS-2's second within-round grant should
// reduce latency.
func AB1PDS2(cfg Config) (Result, error) {
	res := Result{
		ID:     "ab-pds2",
		Title:  "AB1 — PDS-1 vs PDS-2 on lock-compute-lock-compute-unlock-unlock",
		XLabel: "clients",
		YLabel: "ms/invocation",
	}
	for _, k := range []struct {
		label string
		kind  replobj.SchedulerKind
	}{
		{"PDS-1", replobj.PDS},
		{"PDS-2", replobj.PDS2},
	} {
		s := Series{Label: k.label}
		for n := 1; n <= 8; n++ {
			y, err := runScenario(cfg, n,
				localSetup(cfg, k.kind, n, ComputeTime),
				localScript(cfg, PatternDouble))
			if err != nil {
				return res, fmt.Errorf("ab-pds2 %s n=%d: %w", k.label, n, err)
			}
			s.Points = append(s.Points, Point{X: float64(n), Y: y})
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// AB2LSAPeriod sweeps ADETS-LSA's mutex-table broadcast period on pattern
// (c) with 10 clients: shorter periods cut follower lag at the price of
// more messages.
func AB2LSAPeriod(cfg Config) (Result, error) {
	res := Result{
		ID:     "ab-lsaperiod",
		Title:  "AB2 — LSA broadcast period sweep (pattern c, 10 clients)",
		XLabel: "period ms",
		YLabel: "ms/invocation",
	}
	s := Series{Label: "LSA"}
	for _, period := range []time.Duration{
		time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond,
		10 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond,
	} {
		period := period
		setup := func(c *replobj.Cluster) error {
			g, err := c.NewGroup("obj", cfg.Replicas,
				replobj.WithScheduler(replobj.LSA),
				replobj.WithLSAPeriod(period))
			if err != nil {
				return err
			}
			registerLocalObject(g, ComputeTime)
			g.Start()
			return nil
		}
		y, err := runScenario(cfg, MaxClients, setup, localScript(cfg, PatternC))
		if err != nil {
			return res, fmt.Errorf("ab-lsaperiod %v: %w", period, err)
		}
		s.Points = append(s.Points, Point{X: float64(period.Milliseconds()), Y: y})
	}
	res.Series = append(res.Series, s)
	return res, nil
}

// AB3ReplyPolicy compares reply-collection policies under ADETS-LSA
// (pattern b, 5 clients): First hides the follower lag entirely, All pays
// the full table-broadcast latency — the knob that controls how much of
// LSA's cost a client observes.
func AB3ReplyPolicy(cfg Config) (Result, error) {
	res := Result{
		ID:     "ab-reply",
		Title:  "AB3 — reply policy (first/majority/all) under LSA, pattern b, 5 clients",
		XLabel: "policy (1=first 2=majority 3=all)",
		YLabel: "ms/invocation",
	}
	s := Series{Label: "LSA"}
	for i, pol := range []replobj.ReplyPolicy{client.First, client.Majority, client.All} {
		c2 := cfg
		c2.Policy = pol
		y, err := runScenario(c2, 5,
			localSetup(c2, replobj.LSA, 5, ComputeTime),
			localScript(c2, PatternB))
		if err != nil {
			return res, fmt.Errorf("ab-reply %v: %w", pol, err)
		}
		s.Points = append(s.Points, Point{X: float64(i + 1), Y: y})
	}
	res.Series = append(res.Series, s)
	return res, nil
}

// AB4MATYield measures the paper's Section 5.3 remedy: pattern (d) with an
// explicit Yield after the unlock restores MAT's concurrency.
func AB4MATYield(cfg Config) (Result, error) {
	res := Result{
		ID:     "ab-yield",
		Title:  "AB4 — ADETS-MAT pattern d with and without Yield after unlock",
		XLabel: "clients",
		YLabel: "ms/invocation",
	}
	for _, v := range []struct {
		label   string
		pattern Pattern
	}{
		{"MAT", PatternD},
		{"MAT+yield", PatternDYield},
	} {
		s := Series{Label: v.label}
		for n := 1; n <= MaxClients; n++ {
			y, err := runScenario(cfg, n,
				localSetup(cfg, replobj.MAT, n, ComputeTime),
				localScript(cfg, v.pattern))
			if err != nil {
				return res, fmt.Errorf("ab-yield %s n=%d: %w", v.label, n, err)
			}
			s.Points = append(s.Points, Point{X: float64(n), Y: y})
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// AB5PDSNested compares the two nested-invocation strategies of Section
// 4.2 on the Fig. 5(b) patterns: A (block the round — good for short
// invocations) vs B (suspend, resume at a round boundary).
func AB5PDSNested(cfg Config) (Result, error) {
	res := Result{
		ID:     "ab-pdsnested",
		Title:  "AB5 — PDS nested strategy A (block round) vs B (suspend), Fig. 5(b) patterns",
		XLabel: "pattern#",
		YLabel: "ms/invocation",
	}
	for _, v := range []struct {
		label string
		ns    pds.NestedStrategy
	}{
		{"PDS/A", pds.NestedBlockRound},
		{"PDS/B", pds.NestedSuspend},
	} {
		ns := v.ns
		sub, err := fig5b(cfg, map[replobj.SchedulerKind][]replobj.GroupOption{
			replobj.PDS: {replobj.WithPDSConfig(pds.Config{
				PoolSize: Fig5bClients,
				Nested:   ns,
			})},
		})
		if err != nil {
			return res, fmt.Errorf("ab-pdsnested %s: %w", v.label, err)
		}
		pdsSeries, ok := sub.Get("PDS")
		if !ok {
			return res, fmt.Errorf("ab-pdsnested: PDS series missing")
		}
		pdsSeries.Label = v.label
		res.Series = append(res.Series, pdsSeries)
	}
	return res, nil
}

// AB6PDSAssignment compares the synchronized and round-robin request
// assignment strategies on pattern (b) — the workload whose identical
// computation times are round-robin's stated precondition.
func AB6PDSAssignment(cfg Config) (Result, error) {
	res := Result{
		ID:     "ab-pdsassign",
		Title:  "AB6 — PDS request assignment: synchronized vs round-robin (pattern b)",
		XLabel: "clients",
		YLabel: "ms/invocation",
	}
	for _, v := range []struct {
		label  string
		assign pds.Assignment
	}{
		{"synchronized", pds.Synchronized},
		{"round-robin", pds.RoundRobin},
	} {
		assign := v.assign
		s := Series{Label: v.label}
		for n := 1; n <= 8; n++ {
			n := n
			setup := func(c *replobj.Cluster) error {
				g, err := c.NewGroup("obj", cfg.Replicas,
					replobj.WithScheduler(replobj.PDS),
					replobj.WithPDSConfig(pds.Config{PoolSize: n, Assignment: assign}))
				if err != nil {
					return err
				}
				registerLocalObject(g, ComputeTime)
				g.Start()
				return nil
			}
			y, err := runScenario(cfg, n, setup, localScript(cfg, PatternB))
			if err != nil {
				return res, fmt.Errorf("ab-pdsassign %s n=%d: %w", v.label, n, err)
			}
			s.Points = append(s.Points, Point{X: float64(n), Y: y})
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// AB7MATPredict measures the lock-prediction extension on a mixed
// workload: even-indexed clients issue pure 100 ms computations, odd ones
// short lock-protected updates. Plain ADETS-MAT makes every locker wait
// for the computations ahead of it in the token order; with the
// computations declaring NoMoreLocks they step aside and the lockers
// proceed immediately.
func AB7MATPredict(cfg Config) (Result, error) {
	res := Result{
		ID:     "ab-matpredict",
		Title:  "AB7 — ADETS-MAT lock prediction (mixed compute/lock workload)",
		XLabel: "clients",
		YLabel: "ms/invocation (lockers)",
	}
	for _, v := range []struct {
		label   string
		declare byte
	}{
		{"MAT", 0},
		{"MAT+predict", 1},
	} {
		declare := v.declare
		s := Series{Label: v.label}
		for n := 2; n <= 10; n += 2 {
			n := n
			setup := func(c *replobj.Cluster) error {
				g, err := c.NewGroup("obj", cfg.Replicas, replobj.WithScheduler(replobj.MAT))
				if err != nil {
					return err
				}
				registerMixedObject(g, ComputeTime)
				g.Start()
				return nil
			}
			y, err := runScenario(cfg, n, setup, func(rt vtime.Runtime, cl *replobj.Client, idx int) ([]time.Duration, error) {
				kind := byte(idx % 2) // 0 = computer, 1 = locker
				durs, err := timedLoop(rt, cfg, func(int) error {
					_, err := cl.Invoke("obj", "mixed", []byte{kind, declare})
					return err
				})
				if kind == 0 {
					return nil, err // only the lockers' latency is the metric
				}
				return durs, err
			})
			if err != nil {
				return res, fmt.Errorf("ab-matpredict %s n=%d: %w", v.label, n, err)
			}
			s.Points = append(s.Points, Point{X: float64(n), Y: y})
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}
