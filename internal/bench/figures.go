package bench

import (
	"encoding/binary"
	"fmt"
	"time"

	replobj "github.com/replobj/replobj"
	"github.com/replobj/replobj/internal/adets/pds"
	"github.com/replobj/replobj/internal/vtime"
)

// Fig4Kinds are the strategies compared in Fig. 4, with the paper's labels.
var Fig4Kinds = []struct {
	Label string
	Kind  replobj.SchedulerKind
}{
	{"SAT", replobj.ADSAT},
	{"MAT", replobj.MAT},
	{"LSA", replobj.LSA},
	{"PDS", replobj.PDS},
}

// Fig5bKinds adds the sequential baseline (Fig. 5(b) compares all five).
var Fig5bKinds = []struct {
	Label string
	Kind  replobj.SchedulerKind
}{
	{"SEQ", replobj.SEQ},
	{"SAT", replobj.ADSAT},
	{"PDS", replobj.PDS},
	{"LSA", replobj.LSA},
	{"MAT", replobj.MAT},
}

// MaxClients is the paper's client sweep bound for Figs. 4, 5(a) and 6(a).
const MaxClients = 10

// groupOpts builds the group options for a strategy, sizing PDS pools to
// the client count as the paper does ("the size of the thread-pool in PDS
// was equal to the number of clients").
func groupOpts(kind replobj.SchedulerKind, clients int) []replobj.GroupOption {
	opts := []replobj.GroupOption{replobj.WithScheduler(kind)}
	if kind == replobj.PDS || kind == replobj.PDS2 {
		opts = append(opts, replobj.WithPDSConfig(pds.Config{PoolSize: clients}))
	}
	return opts
}

// localSetup creates the single replicated object of the Fig. 4 suite.
func localSetup(cfg Config, kind replobj.SchedulerKind, clients int, compute time.Duration) func(*replobj.Cluster) error {
	return func(c *replobj.Cluster) error {
		g, err := c.NewGroup("obj", cfg.Replicas, groupOpts(kind, clients)...)
		if err != nil {
			return err
		}
		registerLocalObject(g, compute)
		g.Start()
		return nil
	}
}

// localScript drives the Fig. 4 "work" method with pattern p.
func localScript(cfg Config, p Pattern) clientScript {
	return func(rt vtime.Runtime, cl *replobj.Client, idx int) ([]time.Duration, error) {
		return timedLoop(rt, cfg, func(seq int) error {
			_, err := cl.Invoke("obj", "work", localArgs(p, idx, seq))
			return err
		})
	}
}

// Fig4 reproduces one panel of the paper's Fig. 4 (local computations and
// mutex locks): mean invocation time over 1..MaxClients clients, for
// ADETS-SAT, ADETS-MAT, ADETS-LSA and ADETS-PDS.
func Fig4(cfg Config, p Pattern) (Result, error) {
	titles := map[Pattern]string{
		PatternA: "(a) compute",
		PatternB: "(b) compute-lock-unlock",
		PatternC: "(c) lock-compute-unlock",
		PatternD: "(d) lock-unlock-compute",
	}
	res := Result{
		ID:     "fig4" + string(p),
		Title:  "Fig. 4 " + titles[p] + " — local computations with mutex locks",
		XLabel: "clients",
		YLabel: "ms/invocation",
	}
	for _, k := range Fig4Kinds {
		s := Series{Label: k.Label}
		for n := 1; n <= MaxClients; n++ {
			y, err := runScenario(cfg, n,
				localSetup(cfg, k.Kind, n, ComputeTime),
				localScript(cfg, p))
			if err != nil {
				return res, fmt.Errorf("%s %s n=%d: %w", res.ID, k.Label, n, err)
			}
			s.Points = append(s.Points, Point{X: float64(n), Y: y})
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// Fig5a reproduces Fig. 5(a): nested invocations only, SEQ vs ADETS-SAT,
// with the invoked method returning immediately or suspending 2 ms.
func Fig5a(cfg Config) (Result, error) {
	res := Result{
		ID:     "fig5a",
		Title:  "Fig. 5(a) — nested invocations only (two groups)",
		XLabel: "clients",
		YLabel: "ms/invocation",
	}
	for _, k := range []struct {
		label string
		kind  replobj.SchedulerKind
		delay uint16 // ms at B
	}{
		{"SEQ", replobj.SEQ, 0},
		{"SAT", replobj.ADSAT, 0},
		{"SEQ(2ms)", replobj.SEQ, 2},
		{"SAT(2ms)", replobj.ADSAT, 2},
	} {
		s := Series{Label: k.label}
		var dly [2]byte
		binary.BigEndian.PutUint16(dly[:], k.delay)
		for n := 1; n <= MaxClients; n++ {
			setup := func(c *replobj.Cluster) error {
				a, err := c.NewGroup("A", cfg.Replicas, groupOpts(k.kind, n)...)
				if err != nil {
					return err
				}
				b, err := c.NewGroup("B", cfg.Replicas, groupOpts(k.kind, n)...)
				if err != nil {
					return err
				}
				registerForwardObject(a, "B")
				registerSleepObject(b)
				a.Start()
				b.Start()
				return nil
			}
			y, err := runScenario(cfg, n, setup, func(rt vtime.Runtime, cl *replobj.Client, idx int) ([]time.Duration, error) {
				return timedLoop(rt, cfg, func(int) error {
					_, err := cl.Invoke("A", "fwd", dly[:])
					return err
				})
			})
			if err != nil {
				return res, fmt.Errorf("fig5a %s n=%d: %w", k.label, n, err)
			}
			s.Points = append(s.Points, Point{X: float64(n), Y: y})
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// Fig5bClients is the paper's client count for Fig. 5(b).
const Fig5bClients = 10

// Fig5b reproduces Fig. 5(b): the six permutations of nested invocation
// (N), computation (C) and synchronized state update (S), ten clients, all
// five strategies. X enumerates the permutations in the paper's order.
func Fig5b(cfg Config) (Result, error) {
	return fig5b(cfg, nil)
}

// fig5b optionally overrides group options per kind (used by the PDS
// nested-strategy ablation).
func fig5b(cfg Config, extra map[replobj.SchedulerKind][]replobj.GroupOption) (Result, error) {
	res := Result{
		ID:     "fig5b",
		Title:  "Fig. 5(b) — nested invocations, local computations, mutex locks (10 clients; X = " + fmt.Sprint(Perms) + ")",
		XLabel: "pattern#",
		YLabel: "ms/invocation",
	}
	for _, k := range Fig5bKinds {
		s := Series{Label: k.Label}
		for pi, perm := range Perms {
			perm := perm
			setup := func(c *replobj.Cluster) error {
				opts := groupOpts(k.Kind, Fig5bClients)
				opts = append(opts, extra[k.Kind]...)
				a, err := c.NewGroup("A", cfg.Replicas, opts...)
				if err != nil {
					return err
				}
				b, err := c.NewGroup("B", cfg.Replicas, groupOpts(k.Kind, Fig5bClients)...)
				if err != nil {
					return err
				}
				registerPermObject(a, "B")
				registerSleepObject(b)
				a.Start()
				b.Start()
				return nil
			}
			y, err := runScenario(cfg, Fig5bClients, setup, func(rt vtime.Runtime, cl *replobj.Client, idx int) ([]time.Duration, error) {
				return timedLoop(rt, cfg, func(seq int) error {
					_, err := cl.Invoke("A", "perm", permArgs(perm, idx, seq))
					return err
				})
			})
			if err != nil {
				return res, fmt.Errorf("fig5b %s %s: %w", k.Label, perm, err)
			}
			s.Points = append(s.Points, Point{X: float64(pi + 1), Y: y})
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// Fig6Kinds are the strategies compared in Fig. 6.
var Fig6Kinds = []struct {
	Label string
	Kind  replobj.SchedulerKind
}{
	{"SEQ", replobj.SEQ},
	{"SAT", replobj.ADSAT},
	{"MAT", replobj.MAT},
	{"LSA", replobj.LSA},
	{"PDS", replobj.PDS},
}

// bufferSetup creates the buffer group with the given capacity (0 =
// unbounded).
func bufferSetup(cfg Config, kind replobj.SchedulerKind, clients, capacity int) func(*replobj.Cluster) error {
	return func(c *replobj.Cluster) error {
		opts := append(groupOpts(kind, clients),
			replobj.WithState(func() any { return &bufState{cap: capacity} }))
		g, err := c.NewGroup("buf", cfg.Replicas, opts...)
		if err != nil {
			return err
		}
		registerBufferObject(g)
		g.Start()
		return nil
	}
}

// pollLoop is the sequential polling fallback: one logical consume (or
// produce) = try until success, sleeping PollInterval between attempts.
func pollLoop(rt vtime.Runtime, cl *replobj.Client, method string, arg []byte) error {
	for {
		out, err := cl.Invoke("buf", method, arg)
		if err != nil {
			return err
		}
		if len(out) > 0 && out[0] == 1 {
			return nil
		}
		rt.Sleep(PollInterval)
	}
}

// Fig6a reproduces Fig. 6(a): unbounded buffer, one producer, 1..10
// consumers; consumer-side mean invocation time. SEQ uses polling.
func Fig6a(cfg Config) (Result, error) {
	res := Result{
		ID:     "fig6a",
		Title:  "Fig. 6(a) — unbounded buffer, 1 producer, N consumers",
		XLabel: "consumers",
		YLabel: "ms/invocation",
	}
	for _, k := range Fig6Kinds {
		s := Series{Label: k.Label}
		poll := k.Kind == replobj.SEQ
		for consumers := 1; consumers <= MaxClients; consumers++ {
			consumers := consumers
			total := consumers * (cfg.Warmup + cfg.PerClient)
			// Client 0 is the producer (unmeasured); 1..consumers consume.
			script := func(rt vtime.Runtime, cl *replobj.Client, idx int) ([]time.Duration, error) {
				if idx == 0 {
					for i := 0; i < total; i++ {
						var err error
						if poll {
							err = pollLoop(rt, cl, "tryproduce", []byte{1})
						} else {
							_, err = cl.Invoke("buf", "produce", []byte{1})
						}
						if err != nil {
							return nil, err
						}
					}
					return nil, nil
				}
				return timedLoop(rt, cfg, func(int) error {
					if poll {
						return pollLoop(rt, cl, "tryconsume", nil)
					}
					_, err := cl.Invoke("buf", "consume", nil)
					return err
				})
			}
			y, err := runScenario(cfg, consumers+1,
				bufferSetup(cfg, k.Kind, consumers+1, 0), script)
			if err != nil {
				return res, fmt.Errorf("fig6a %s n=%d: %w", k.Label, consumers, err)
			}
			s.Points = append(s.Points, Point{X: float64(consumers), Y: y})
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// Fig6bPairs is the producer/consumer sweep bound of Fig. 6(b).
const Fig6bPairs = 5

// Fig6bCapacity is the paper's bounded-buffer size.
const Fig6bCapacity = 2

// Fig6b reproduces Fig. 6(b): bounded buffer (size 2), k producers and k
// consumers, k = 1..5; consumer-side mean invocation time.
func Fig6b(cfg Config) (Result, error) {
	res := Result{
		ID:     "fig6b",
		Title:  "Fig. 6(b) — bounded buffer (size 2), N producers + N consumers",
		XLabel: "consumers",
		YLabel: "ms/invocation",
	}
	for _, k := range Fig6Kinds {
		s := Series{Label: k.Label}
		poll := k.Kind == replobj.SEQ
		for pairs := 1; pairs <= Fig6bPairs; pairs++ {
			pairs := pairs
			perClient := cfg.Warmup + cfg.PerClient
			script := func(rt vtime.Runtime, cl *replobj.Client, idx int) ([]time.Duration, error) {
				if idx < pairs { // producers (unmeasured)
					for i := 0; i < perClient; i++ {
						var err error
						if poll {
							err = pollLoop(rt, cl, "tryproduce", []byte{1})
						} else {
							_, err = cl.Invoke("buf", "produce", []byte{1})
						}
						if err != nil {
							return nil, err
						}
					}
					return nil, nil
				}
				return timedLoop(rt, cfg, func(int) error {
					if poll {
						return pollLoop(rt, cl, "tryconsume", nil)
					}
					_, err := cl.Invoke("buf", "consume", nil)
					return err
				})
			}
			y, err := runScenario(cfg, 2*pairs,
				bufferSetup(cfg, k.Kind, 2*pairs, Fig6bCapacity), script)
			if err != nil {
				return res, fmt.Errorf("fig6b %s k=%d: %w", k.Label, pairs, err)
			}
			s.Points = append(s.Points, Point{X: float64(pairs), Y: y})
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}
