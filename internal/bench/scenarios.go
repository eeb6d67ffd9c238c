package bench

import (
	"fmt"
	"sort"
	"time"

	replobj "github.com/replobj/replobj"
	"github.com/replobj/replobj/internal/vtime"
)

// This file implements the production scenario suite: four replicated-object
// workloads modeled on common service shapes — a web session store, a
// token-bucket rate limiter, an auction/chat room with a load burst, and a
// read-mostly key-value cache. Unlike the paper's microbenchmarks (one
// pattern, one knob), each scenario has a request mix whose best static
// strategy differs — which is exactly the case ADETS-ADAPT exists for — and
// the report is SLO-style: exact-sample p50/p99/p99.9 latency quantiles per
// scheduler kind, with the adaptive scheduler judged against every static
// kind on the identical workload.
//
// Scale comes from the virtual-time kernel: a handful of driver connections
// multiplex invocations on behalf of a virtual population of ~2 million
// distinct sessions/keys (ids drawn deterministically via mix), so shard
// spread and class cardinality behave like production traffic while a full
// sweep runs in seconds of host time. Every parameter is computed
// client-side from (driver, seq), so all replicas see identical requests by
// construction and adaptive switch decisions are replicated state.

// ScenarioSLO is the SLO summary of one (scenario, scheduler) cell.
type ScenarioSLO struct {
	Scenario  string
	Scheduler string
	Requests  int
	P50ms     float64
	P99ms     float64
	P999ms    float64
	// Switches is the number of strategy switches the adaptive scheduler
	// performed during the run (0 for static kinds).
	Switches uint64 `json:",omitempty"`
}

// Scenario suite sizing.
const (
	// ScenarioDrivers is the number of concurrent driver connections per
	// scenario run; each multiplexes the virtual session population.
	ScenarioDrivers = 12
	// ScenarioSessions is the virtual client/session/key population.
	ScenarioSessions = 1 << 21
	// ScenarioShards is the class/mutex shard count the populations hash
	// onto (sessions and keys use subsets of it).
	ScenarioShards = 64
	// ScenarioLanes sizes the CC lane pool for the classed scenarios.
	ScenarioLanes = 64
	// ScenarioEpoch is the adaptive boundary spacing: short enough that the
	// warmup invocations (ScenarioDrivers * cfg.Warmup stream positions)
	// cross the first boundary, so measurement starts adapted.
	ScenarioEpoch = 24
	// ScenarioRooms is the burst scenario's chat-room count.
	ScenarioRooms = 8
)

// ScenarioSpec describes one production scenario: the object (state factory
// with conflict-class declaration plus handler registration) and the
// deterministic per-invocation argument stream.
type ScenarioSpec struct {
	ID    string
	Title string
	// Method is the invoked method name.
	Method string
	// State builds the per-replica object state (a ConflictClasser).
	State func() any
	// Register installs the handlers.
	Register func(g *replobj.Group)
	// Args builds the argument bytes for one invocation of one driver.
	// Warmup and measured invocations share the seq counter.
	Args func(driver, seq int) []byte
}

// scenarioObject is the shared object state: it declares conflict classes
// from the request arguments alone (args[0] = shard, args[1] != 0 marks the
// request global), so every replica derives the identical class set.
type scenarioObject struct{}

// ConflictClasses implements replobj.ConflictClasser.
func (scenarioObject) ConflictClasses(method string, args []byte) []string {
	if len(args) < 2 || args[1] != 0 {
		return nil // global: conflicts with everything
	}
	return []string{fmt.Sprintf("s%d", args[0])}
}

// registerScenarioObject installs "op": lock the request's shard mutexes,
// compute for the argument-selected duration, unlock. args[2] selects the
// compute bucket in units of 100 µs. Classed requests (args[1] == 0) lock
// the single shard args[0]; global requests lock args[3] shards starting at
// args[0] in ascending order (span 1 when absent), so a request that is
// global at the class level is global at the lock level too — lock-based
// schedulers must serialize against it just like the class-based ones.
func registerScenarioObject(g *replobj.Group) {
	g.Register("op", func(inv *replobj.Invocation) ([]byte, error) {
		args := inv.Args()
		span := 1
		if args[1] != 0 && len(args) > 3 && args[3] > 1 {
			span = int(args[3])
		}
		for i := 0; i < span; i++ {
			if err := inv.Lock(replobj.MutexID(fmt.Sprintf("s%d", int(args[0])+i))); err != nil {
				return nil, err
			}
		}
		inv.Compute(time.Duration(args[2]) * 100 * time.Microsecond)
		for i := span - 1; i >= 0; i-- {
			if err := inv.Unlock(replobj.MutexID(fmt.Sprintf("s%d", int(args[0])+i))); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
}

// Scenarios builds the production scenario suite. cfg sizes the per-driver
// invocation counts; the phase split of the burst scenario derives from it.
func ScenarioSpecs(cfg Config) []ScenarioSpec {
	total := cfg.Warmup + cfg.PerClient
	return []ScenarioSpec{
		{
			ID:    "session-store",
			Title: "Web session store — 2M virtual sessions, per-session ops, fully classed",
			// Every op touches one session; sessions hash onto 64 shards and
			// declare the shard as conflict class: disjoint sessions commute.
			// Expected winner: ADETS-CC (parallel lanes).
			Method:   "op",
			State:    func() any { return scenarioObject{} },
			Register: registerScenarioObject,
			Args: func(driver, seq int) []byte {
				sid := mix(uint64(driver), uint64(seq), 31) % ScenarioSessions
				return []byte{byte(sid % ScenarioShards), 0, 10} // classed, 1 ms
			},
		},
		{
			ID:    "rate-limiter",
			Title: "Token-bucket rate limiter — one global bucket, every request conflicts",
			// Every op debits the single bucket under one mutex and declares
			// no class: total serialization is inherent. Expected winner: SEQ
			// (least scheduling overhead when nothing can overlap).
			Method:   "op",
			State:    func() any { return scenarioObject{} },
			Register: registerScenarioObject,
			Args: func(driver, seq int) []byte {
				return []byte{0, 1, 3} // global, 300 µs
			},
		},
		{
			ID:    "auction-burst",
			Title: "Auction/chat burst — calm per-room traffic, then a burst on one hot room",
			// First half: classed per-room reads spread over 8 rooms (CC
			// territory). Second half: a bidding/posting burst — every driver
			// hammers room 0 with global requests (SEQ territory). No static
			// kind is right for both halves; the adaptive scheduler must
			// switch at least once, deterministically.
			Method:   "op",
			State:    func() any { return scenarioObject{} },
			Register: registerScenarioObject,
			Args: func(driver, seq int) []byte {
				if seq < total/2 {
					room := byte(mix(uint64(driver), uint64(seq), 37) % ScenarioRooms)
					return []byte{room, 0, 10} // calm: classed, 1 ms
				}
				return []byte{0, 1, 3} // burst: global hot room, 300 µs
			},
		},
		{
			ID:    "read-mostly-kv",
			Title: "Read-mostly KV cache — 95% classed shard reads, 5% global writes",
			// Reads declare their key shard (32 shards of the 2M-key space)
			// and commute across shards; the occasional write invalidates the
			// whole cache — it is global at the class level and spans all 32
			// shard locks at the lock level. Expected winner: ADETS-CC,
			// degraded by the write ratio.
			Method:   "op",
			State:    func() any { return scenarioObject{} },
			Register: registerScenarioObject,
			Args: func(driver, seq int) []byte {
				key := mix(uint64(driver), uint64(seq), 41) % ScenarioSessions
				shard := byte(key % 32)
				if mix(uint64(driver), uint64(seq), 43)%100 < 5 {
					return []byte{0, 1, 20, 32} // write: global, 2 ms, all shards
				}
				return []byte{shard, 0, 5} // read: classed, 500 µs
			},
		},
	}
}

// ScenarioKinds lists the scheduler kinds the suite compares: every static
// kind plus the adaptive meta-scheduler.
func ScenarioKinds() []replobj.SchedulerKind { return replobj.Kinds() }

// switchCounter is implemented by the adaptive meta-scheduler.
type switchCounter interface{ Switches() uint64 }

// RunScenario measures one (scenario, scheduler) cell and returns its SLO
// summary. Adaptive runs additionally verify cross-replica trace-digest
// equality (the switch decisions are part of the "sched" stream) and report
// the switch count.
func RunScenario(cfg Config, kind replobj.SchedulerKind, spec ScenarioSpec) (ScenarioSLO, error) {
	slo := ScenarioSLO{Scenario: spec.ID, Scheduler: string(kind)}
	rt := vtime.Virtual()
	defer rt.Stop()
	copts := []replobj.ClusterOption{replobj.WithLatency(cfg.Latency)}
	if cfg.Metrics != nil {
		copts = append(copts, replobj.WithMetrics(cfg.Metrics))
	}
	c := replobj.NewCluster(rt, copts...)
	var durs []time.Duration
	var firstErr error
	vtime.Run(rt, "scenario-main", func() {
		defer c.Close()
		opts := append(groupOpts(kind, ScenarioDrivers),
			replobj.WithState(spec.State))
		switch kind {
		case replobj.CC:
			opts = append(opts, replobj.WithCCLanes(ScenarioLanes))
		case replobj.ADAPT:
			opts = append(opts,
				replobj.WithCCLanes(ScenarioLanes),
				replobj.WithAdaptive(replobj.AdaptiveConfig{Epoch: ScenarioEpoch}),
				replobj.WithSchedTrace(0))
		}
		g, err := c.NewGroup(spec.ID, cfg.Replicas, opts...)
		if err != nil {
			firstErr = err
			return
		}
		spec.Register(g)
		g.Start()
		results := vtime.NewMailbox[clientResult](rt, "scenario-results")
		for i := 0; i < ScenarioDrivers; i++ {
			i := i
			rt.Go(fmt.Sprintf("driver-%d", i), func() {
				cl := c.NewClient(fmt.Sprintf("d%d", i),
					replobj.WithReplyPolicy(cfg.Policy),
					replobj.WithInvocationTimeout(5*time.Minute))
				ds, err := timedLoop(rt, cfg, func(seq int) error {
					_, err := cl.Invoke(replobj.GroupID(spec.ID), spec.Method, spec.Args(i, seq))
					return err
				})
				results.Put(clientResult{durs: ds, err: err})
			})
		}
		for i := 0; i < ScenarioDrivers; i++ {
			res, _ := results.Get()
			if res.err != nil && firstErr == nil {
				firstErr = res.err
			}
			durs = append(durs, res.durs...)
		}
		if kind == replobj.ADAPT && firstErr == nil {
			if sw, ok := g.Replica(0).Scheduler().(switchCounter); ok {
				slo.Switches = sw.Switches()
			}
			ref := g.Trace(0)
			for rank := 1; rank < cfg.Replicas; rank++ {
				if d := replobj.FirstTraceDivergence(ref, g.Trace(rank)); d != nil {
					firstErr = fmt.Errorf("scenario %s: replica %d trace diverged from replica 0 across switches: %v",
						spec.ID, rank, d)
					return
				}
			}
		}
	})
	if firstErr != nil {
		return slo, firstErr
	}
	if len(durs) == 0 {
		return slo, fmt.Errorf("scenario %s/%s: no samples collected", spec.ID, kind)
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	slo.Requests = len(durs)
	slo.P50ms = quantileMS(durs, 0.50)
	slo.P99ms = quantileMS(durs, 0.99)
	slo.P999ms = quantileMS(durs, 0.999)
	return slo, nil
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

// ProductionScenarios runs the full suite: every scenario under every
// scheduler kind. The figure plots p99 per scenario index; the full SLO
// rows (p50/p99/p99.9, request counts, adaptive switch counts) ride
// Result.Scenarios.
func ProductionScenarios(cfg Config) (Result, error) {
	res := Result{
		ID:     "scenarios",
		Title:  "Production scenarios — SLO quantiles per scheduler (adaptive vs every static kind)",
		XLabel: "scenario index",
		YLabel: "p99 ms",
	}
	specs := ScenarioSpecs(cfg)
	for _, kind := range ScenarioKinds() {
		s := Series{Label: string(kind)}
		for si, spec := range specs {
			slo, err := RunScenario(cfg, kind, spec)
			if err != nil {
				return res, fmt.Errorf("scenarios %s/%s: %w", spec.ID, kind, err)
			}
			res.Scenarios = append(res.Scenarios, slo)
			s.Points = append(s.Points, Point{X: float64(si), Y: slo.P99ms})
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}
