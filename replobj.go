// Package replobj is a middleware for deterministically multithreaded
// replicated objects — a Go implementation and reproduction of
// "Multithreading Strategies for Replicated Objects" (Domaschka,
// Bestfleisch, Hauck, Reiser, Kapitza; Middleware 2008).
//
// Replicated objects execute method invocations on every replica; to keep
// replica state consistent, every source of scheduling non-determinism —
// lock grants, condition-variable wakeups, wait timeouts, nested-invocation
// resume points — is decided by a deterministic thread scheduler. The
// package offers all strategies surveyed and introduced by the paper:
//
//	SEQ        strictly sequential execution (baseline)
//	SL         Eternal's single logical thread (callbacks only)
//	SAT        single active thread, plain locks (Zhao et al.)
//	ADETS-SAT  SAT + reentrant locks, condition variables, timed waits
//	ADETS-MAT  true multithreading with a primary-token discipline
//	ADETS-LSA  leader/follower loose synchronization (Basile's LSA + Java model)
//	ADETS-PDS  round-based preemptive deterministic scheduling (PDS-1/PDS-2)
//	ADETS-CC   conflict-class parallel dispatch (this reproduction's
//	           extension after Early Scheduling in Parallel SMR)
//
// A Cluster hosts replica groups and clients over a shared network —
// in-process with simulated latency under vtime.Virtual() (the evaluation
// setup), or real TCP under vtime.Real(). Quickstart:
//
//	rt := vtime.Virtual()
//	c := replobj.NewCluster(rt)
//	g, _ := c.NewGroup("counter", 3, replobj.WithScheduler(replobj.MAT))
//	g.Register("add", func(inv *replobj.Invocation) ([]byte, error) {
//	    inv.Lock("state"); defer inv.Unlock("state")
//	    ...
//	})
//	g.Start()
//	cl := c.NewClient("c1")
//	out, err := cl.Invoke("counter", "add", []byte{1})
//
// See DESIGN.md for the architecture and EXPERIMENTS.md for the
// reproduction of the paper's measurements.
package replobj

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/replobj/replobj/internal/adets"
	"github.com/replobj/replobj/internal/adets/cc"
	"github.com/replobj/replobj/internal/adets/lsa"
	"github.com/replobj/replobj/internal/adets/mat"
	"github.com/replobj/replobj/internal/adets/pds"
	"github.com/replobj/replobj/internal/adets/sat"
	"github.com/replobj/replobj/internal/adets/seq"
	"github.com/replobj/replobj/internal/client"
	"github.com/replobj/replobj/internal/gcs"
	"github.com/replobj/replobj/internal/obs"
	"github.com/replobj/replobj/internal/obs/tracing"
	"github.com/replobj/replobj/internal/replica"
	"github.com/replobj/replobj/internal/shard"
	"github.com/replobj/replobj/internal/transport"
	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

// Re-exported vocabulary so applications need only this package.
type (
	// Invocation is the method execution context (locks, condition
	// variables, nested invocations, simulated computation). It is valid
	// only until the handler returns and must not be kept past it.
	Invocation = replica.Invocation
	// Handler executes one method of a replicated object.
	Handler = replica.Handler
	// MutexID names a mutex.
	MutexID = adets.MutexID
	// CondID names a condition variable of a mutex ("" = implicit).
	CondID = adets.CondID
	// GroupID identifies a replicated object group.
	GroupID = wire.GroupID
	// NodeID identifies a replica or client endpoint.
	NodeID = wire.NodeID
	// ReplyPolicy selects how many replica replies a client waits for.
	ReplyPolicy = client.ReplyPolicy
	// Capabilities is a scheduler's Table 1 row plus feature flags.
	Capabilities = adets.Capabilities
	// ConflictClasser is implemented by object states that declare
	// conflict classes per request for conflict-aware scheduling
	// (ADETS-CC). The result must be a pure function of (method, args).
	ConflictClasser = replica.ConflictClasser
	// Snapshotter is implemented by object states that can be imaged: it
	// is the only way a state is checkpointed (WithCheckpointEvery), and
	// equal states must give equal bytes.
	Snapshotter = replica.Snapshotter
	// MetricsRegistry collects counters, gauges and latency histograms and
	// renders them in Prometheus text format (see internal/obs).
	MetricsRegistry = obs.Registry
	// ScheduleTrace is the deterministic schedule-event log with rolling
	// digests; equal digests at equal positions certify that two replicas
	// took the same scheduling decisions.
	ScheduleTrace = obs.Trace
	// TraceDivergence describes the first position where two replicas'
	// schedule traces disagree.
	TraceDivergence = obs.Divergence
	// SpanCollector is the bounded lock-free span ring of the request
	// tracer; pass one to NewCluster via WithSpans, dump it with
	// WriteJSON/WriteChromeTrace or serve it at /spans.
	SpanCollector = tracing.Collector
	// Span is one annotated stage of a traced request (submit, transport,
	// ordering, grant wait, execution, reply).
	Span = tracing.Span
)

// NewMetricsRegistry returns an empty metrics registry, to be passed to
// NewCluster via WithMetrics.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewSpanCollector returns a span ring retaining the last n spans (n <= 0
// selects the default, 16384), to be passed to NewCluster via WithSpans.
func NewSpanCollector(n int) *SpanCollector { return tracing.NewCollector(n) }

// FirstTraceDivergence compares two replicas' schedule traces and returns
// the earliest position (over the common prefix of every shared stream)
// where they disagree, or nil if the traces are consistent. This is the
// correctness oracle for the deterministic schedulers: with identical
// inputs, any non-nil result means replica state may have diverged.
func FirstTraceDivergence(a, b *ScheduleTrace) *TraceDivergence {
	if a == nil || b == nil {
		return nil
	}
	return obs.FirstDivergence(a.Snapshot(), b.Snapshot())
}

// IsExpiredDuplicate reports whether an invocation error marks a client
// retransmission whose original reply has aged out of the replicas'
// duplicate-detection window: at-most-once can no longer replay the
// original reply, and the caller must treat the request as
// possibly-executed (re-issuing it may execute it twice).
func IsExpiredDuplicate(err error) bool { return replica.IsExpiredDuplicate(err) }

// Reply policies re-exported from the client stub.
const (
	Majority = client.Majority
	First    = client.First
	All      = client.All
)

// SchedulerKind names one of the paper's scheduling strategies.
type SchedulerKind string

// The available strategies (Table 1 of the paper, plus this
// reproduction's conflict-class extension).
const (
	SEQ   SchedulerKind = "SEQ"
	SL    SchedulerKind = "SL"
	SAT   SchedulerKind = "SAT"
	ADSAT SchedulerKind = "ADETS-SAT"
	MAT   SchedulerKind = "ADETS-MAT"
	LSA   SchedulerKind = "ADETS-LSA"
	PDS   SchedulerKind = "ADETS-PDS"
	PDS2  SchedulerKind = "ADETS-PDS-2"
	// CC is conflict-class parallel dispatch: requests with disjoint
	// conflict classes (declared by a ConflictClasser state) execute in
	// parallel on deterministic worker lanes; undeclared requests are
	// global barriers, so existing applications run unchanged (serialized).
	// See internal/adets/cc.
	CC SchedulerKind = "ADETS-CC"
)

// Kinds lists every scheduler kind in the paper's Table 1 order, followed
// by this reproduction's conflict-class extension.
func Kinds() []SchedulerKind {
	return []SchedulerKind{SEQ, SL, SAT, ADSAT, MAT, LSA, PDS, PDS2, CC}
}

// ClusterOption configures a Cluster.
type ClusterOption func(*clusterConfig)

type clusterConfig struct {
	latency time.Duration
	network transport.Network
	metrics *obs.Registry
	spans   *tracing.Collector
}

// WithLatency sets the one-way message latency of the simulated LAN
// (default 600 µs, approximating the paper's 100 Mbit/s switched Ethernet).
func WithLatency(d time.Duration) ClusterOption {
	return func(c *clusterConfig) { c.latency = d }
}

// WithNetwork substitutes a custom transport (e.g. transport.NewTCP for a
// real deployment, or transport.NewInproc with jitter). WithLatency is
// ignored then: the network brings its own latency.
func WithNetwork(n transport.Network) ClusterOption {
	return func(c *clusterConfig) { c.network = n }
}

// WithMetrics attaches a metrics registry to the cluster: the transport,
// every group member, every scheduler and every replica record into it.
// Without it (the default) instrumentation is disabled and free.
func WithMetrics(reg *MetricsRegistry) ClusterOption {
	return func(c *clusterConfig) { c.metrics = reg }
}

// WithSpans attaches a span collector to the cluster, enabling end-to-end
// request tracing: every client invocation allocates a deterministic trace
// id, the context rides the wire with each request and reply, and every
// layer (client, transport, sequencer, scheduler, execution) records a span
// into col. Without it (the default) tracing is disabled and free.
func WithSpans(col *SpanCollector) ClusterOption {
	return func(c *clusterConfig) { c.spans = col }
}

// Cluster hosts replica groups and clients over one network.
type Cluster struct {
	rt      vtime.Runtime
	net     transport.Network
	inproc  *transport.Inproc // nil when a custom network is used
	dir     *replica.Directory
	groups  map[GroupID]*Group
	metrics *obs.Registry
	spans   *tracing.Collector

	// clientsMu guards clients: drivers create their clients from concurrent
	// goroutines, and a lost append is a client that Close never stops.
	// clients holds the clients not yet closed; a closed Client leaves at
	// once (client.Config.Closed). incarnations counts the clients made per
	// name (client.Config.Incarnation).
	clientsMu    sync.Mutex
	clients      []*client.Client
	incarnations map[string]uint64
}

// NewCluster builds a cluster on rt. On the wall clock (rt a
// *vtime.RealRuntime) every replica and client the cluster builds runs on a
// node of rt, with a lock of its own; on the virtual kernel all share rt.
func NewCluster(rt vtime.Runtime, opts ...ClusterOption) *Cluster {
	cfg := clusterConfig{latency: transport.DefaultLatency}
	for _, o := range opts {
		o(&cfg)
	}
	c := &Cluster{
		rt:      rt,
		dir:     replica.NewDirectory(),
		groups:  make(map[GroupID]*Group),
		metrics: cfg.metrics,
		spans:   cfg.spans,

		incarnations: make(map[string]uint64),
	}
	// With both metrics and tracing on, every recorded span also feeds a
	// per-stage latency histogram, so /metrics exposes the pipeline
	// decomposition (with streaming p50/p99/p999 quantile gauges) and each
	// bucket carries a trace-id exemplar linking back to a concrete span.
	if cfg.metrics != nil && cfg.spans != nil {
		reg := cfg.metrics
		cfg.spans.SetObserver(func(sp Span) {
			h := reg.Histogram(
				fmt.Sprintf(`replobj_span_stage_seconds{stage=%q,node=%q}`, sp.Name, sp.Node),
				obs.LatencyBuckets())
			h.Observe(sp.Dur.Seconds())
			h.Exemplar(sp.Dur.Seconds(), sp.Trace)
		})
	}
	// A Stats is needed whenever metrics or spans are on: it is both the
	// metric set and the span carrier of the transport layer.
	instrumented := cfg.metrics != nil || cfg.spans != nil
	newStats := func(label string) *transport.Stats {
		st := transport.NewStats(cfg.metrics, label)
		st.Spans = cfg.spans
		return st
	}
	if cfg.network != nil {
		c.net = cfg.network
		if instrumented {
			// Custom networks opt in by exposing SetStats (TCPNetwork does).
			if s, ok := cfg.network.(interface{ SetStats(*transport.Stats) }); ok {
				label := "custom"
				if _, tcp := cfg.network.(*transport.TCPNetwork); tcp {
					label = "tcp"
				}
				s.SetStats(newStats(label))
			}
		}
	} else {
		c.inproc = transport.NewInproc(rt, transport.WithLatency(cfg.latency))
		if instrumented {
			c.inproc.SetStats(newStats("inproc"))
		}
		c.net = c.inproc
	}
	return c
}

// Runtime returns the runtime the cluster was built on, the one its network
// and the code that runs the cluster (vtime.Run, load generators) use. On
// the wall clock the replicas and clients run on nodes of it (see
// NewCluster).
func (c *Cluster) Runtime() vtime.Runtime { return c.rt }

// nodeRuntime returns the runtime of a replica or client about to be built.
// On the wall clock each gets a node of the cluster's runtime: a lock of its
// own on the cluster's clock and stop, as if it ran in a process of its own.
// The virtual kernel stays one, because virtual time is one clock.
func (c *Cluster) nodeRuntime() vtime.Runtime {
	if rt, ok := c.rt.(*vtime.RealRuntime); ok {
		return rt.Node()
	}
	return c.rt
}

// Directory returns the deployment descriptor.
func (c *Cluster) Directory() *replica.Directory { return c.dir }

// Crash makes a node unreachable (in-process network only) — the crash
// model used by the fail-over experiments.
func (c *Cluster) Crash(node NodeID) error {
	if c.inproc == nil {
		return fmt.Errorf("replobj: Crash requires the in-process network")
	}
	c.inproc.Crash(node)
	return nil
}

// SetDropRule installs (or clears, with nil) a message-drop predicate on
// the in-process network — the loss-injection hook for resilience tests.
func (c *Cluster) SetDropRule(f func(from, to NodeID) bool) error {
	if c.inproc == nil {
		return fmt.Errorf("replobj: SetDropRule requires the in-process network")
	}
	if f == nil {
		c.inproc.SetDropRule(nil)
	} else {
		c.inproc.SetDropRule(func(from, to wire.NodeID) bool { return f(from, to) })
	}
	return nil
}

// Close stops all groups and clients and shuts the runtime down.
func (c *Cluster) Close() {
	c.clientsMu.Lock()
	clients := slices.Clone(c.clients)
	c.clientsMu.Unlock()
	for _, cl := range clients {
		cl.Close()
	}
	for _, g := range c.groups {
		g.Stop()
	}
}

// GroupOption configures a replica group. NewGroup and NewSharded apply the
// options in order, then refuse every combination in which one of them
// would be ignored, with an error that names both sides.
type GroupOption func(*groupConfig)

// groupConfig is a group's parsed options.
type groupConfig struct {
	kind             SchedulerKind // WithScheduler's kind (default ADSAT)
	state            func() any
	factory          func(rank int) adets.Scheduler
	lsaPeriod        time.Duration
	pds              pds.Config
	ccLanes          int
	failureDetection bool
	quorum           bool
	traceRetain      int
	checkpointEvery  int
	shards           int
	// given names the options passed that parseGroupOptions checks by
	// presence.
	given map[string]bool
	// shard marks a group as one shard of a sharded object and is the ring
	// of the object's table, which every replica of every shard group
	// shares; set by NewSharded, never by a GroupOption.
	shard *shard.Ring
}

// WithScheduler selects the scheduling strategy (default ADETS-SAT).
func WithScheduler(kind SchedulerKind) GroupOption {
	return func(g *groupConfig) { g.kind = kind; g.given["WithScheduler"] = true }
}

// WithState installs a per-replica object-state factory; handlers retrieve
// the instance via Invocation.State and must guard access with scheduler
// locks. A state that implements ConflictClasser declares the conflict
// classes ADETS-CC schedules by. Beside WithCheckpointEvery, NewGroup calls
// the factory once, to refuse a state that is not a Snapshotter.
func WithState(factory func() any) GroupOption {
	return func(g *groupConfig) { g.state = factory }
}

// WithSchedulerFactory installs a custom scheduler constructor in place of a
// kind (rank is the replica's position in the group). It cannot be combined
// with WithScheduler or an option that configures a kind.
func WithSchedulerFactory(f func(rank int) adets.Scheduler) GroupOption {
	return func(g *groupConfig) { g.factory = f }
}

// WithLSAPeriod sets ADETS-LSA's mutex-table broadcast period. Only the LSA
// kind accepts it.
func WithLSAPeriod(d time.Duration) GroupOption {
	return func(g *groupConfig) { g.lsaPeriod = d; g.given["WithLSAPeriod"] = true }
}

// WithPDSConfig sets the ADETS-PDS configuration: the thread-pool size (the
// paper sizes it to the number of clients), request assignment, nested-call
// strategy and the paper's "artificial requests" (Section 4.2). The variant
// follows the kind. Only the PDS and PDS2 kinds accept it.
func WithPDSConfig(cfg pds.Config) GroupOption {
	return func(g *groupConfig) { g.pds = cfg; g.given["WithPDSConfig"] = true }
}

// WithCCLanes sets ADETS-CC's worker-lane pool size (default 8). The lane
// count is an input of the deterministic class→lane mapping, so every
// replica of a group must use the same value. Only the CC kind accepts it.
func WithCCLanes(n int) GroupOption {
	return func(g *groupConfig) { g.ccLanes = n; g.given["WithCCLanes"] = true }
}

// WithFailureDetection enables heartbeats and view changes (required for
// the LSA fail-over experiments; off by default to keep simulations lean).
func WithFailureDetection(enabled bool) GroupOption {
	return func(g *groupConfig) { g.failureDetection = enabled }
}

// WithQuorum restricts the group to majority partitions: a view must keep a
// strict majority of the one before it, and the sequencer stops ordering
// while it cannot hear a majority. That trades shrinking below a majority
// (surviving cascading crashes) for split-brain safety under partitions.
// Views change only under failure detection, so it requires
// WithFailureDetection(true).
func WithQuorum() GroupOption {
	return func(g *groupConfig) { g.quorum = true }
}

// WithCheckpointEvery makes every replica take a deterministic checkpoint
// at every n-th position of the totally-ordered stream: the scheduler is
// quiesced, the object state is serialized by its Snapshotter (a state
// that is none is refused; without WithState the image is empty), and the
// group layer truncates its retransmission log up to the checkpoint
// (bounded by the group-wide stability watermark). A replica that rejoins
// after the log has moved past its position is restored by snapshot state
// transfer instead of replay. n <= 0 disables checkpointing (the default);
// all replicas of a group must use the same value.
func WithCheckpointEvery(n int) GroupOption {
	return func(g *groupConfig) { g.checkpointEvery = n }
}

// WithSpeculation does nothing: speculation was deleted, since
// the one workload that ran it was faster without it, and every group now
// runs each request once, at its total-order position. Every constructor
// accepts the option beside any other.
//
// Deprecated: the option is kept only because benchmark/workload_kv.go
// passes it (DESIGN.md "Pinned by the ruler"). Leave it out.
func WithSpeculation() GroupOption {
	return func(*groupConfig) {}
}

// WithSchedTrace enables the deterministic schedule trace on every replica
// of the group, retaining the last retain events per trace — one budget
// shared by all of a replica's streams (0 selects the default, 16384). The
// per-stream counts and digests cover the whole history regardless.
// Retrieve traces with Group.Trace and compare them with
// FirstTraceDivergence.
func WithSchedTrace(retain int) GroupOption {
	return func(g *groupConfig) {
		if retain <= 0 {
			retain = obs.DefaultRetain
		}
		g.traceRetain = retain
	}
}

// WithShards partitions the object space of a sharded object across n
// independent replica groups (each with its own sequencer, log,
// checkpoints and scheduler). Default 1. NewSharded only: NewGroup refuses
// it.
func WithShards(n int) GroupOption {
	return func(g *groupConfig) { g.shards = n; g.given["WithShards"] = true }
}

// Group is a replicated object group. Replica instances are created when
// started: Start runs all ranks in this process (simulations, tests);
// StartRank runs a single rank (real deployments where the other ranks are
// remote processes).
type Group struct {
	id       GroupID
	cluster  *Cluster
	cfg      groupConfig
	handlers map[string]Handler
	replicas map[int]*replica.Replica
	members  []NodeID
	traces   map[int]*obs.Trace
}

// NewGroup creates a group of n replicas with the configured scheduler.
// Register handlers, then call Start.
func (c *Cluster) NewGroup(name string, n int, opts ...GroupOption) (*Group, error) {
	cfg, err := parseGroupOptions(opts, false)
	if err != nil {
		return nil, err
	}
	id := GroupID(name)
	if err := c.checkNewGroup(id, n); err != nil {
		return nil, err
	}
	return c.newGroup(id, n, cfg), nil
}

// parseGroupOptions applies opts and refuses every combination in which an
// option would be ignored. sharded says whether NewSharded is the caller.
func parseGroupOptions(opts []GroupOption, sharded bool) (groupConfig, error) {
	cfg := groupConfig{kind: ADSAT, given: make(map[string]bool)}
	for _, o := range opts {
		o(&cfg)
	}
	given := cfg.given
	// strategy names the option that chose the scheduler.
	strategy := fmt.Sprintf("WithScheduler(%s)", cfg.kind)
	switch {
	case cfg.factory != nil:
		strategy = "WithSchedulerFactory"
	case !given["WithScheduler"]:
		strategy += " (the default)"
	}
	configures := func(opt string, kinds ...SchedulerKind) bool {
		return given[opt] && (cfg.factory != nil || !slices.Contains(kinds, cfg.kind))
	}
	var state any // one instance, to learn whether it can be imaged
	if cfg.state != nil && cfg.checkpointEvery > 0 {
		state = cfg.state()
	}
	_, snapshots := state.(replica.Snapshotter)
	var why string
	switch {
	case given["WithShards"] && !sharded:
		why = "WithShards needs NewSharded, not NewGroup"
	case state != nil && !snapshots:
		why = fmt.Sprintf("WithCheckpointEvery needs a WithState whose state is a Snapshotter, not %T", state)
	case cfg.factory != nil && given["WithScheduler"]:
		why = fmt.Sprintf("WithSchedulerFactory replaces the kind WithScheduler(%s) selects", cfg.kind)
	case configures("WithCCLanes", CC):
		why = "WithCCLanes configures ADETS-CC, not " + strategy
	case configures("WithLSAPeriod", LSA):
		why = "WithLSAPeriod configures ADETS-LSA, not " + strategy
	case configures("WithPDSConfig", PDS, PDS2):
		why = "WithPDSConfig configures ADETS-PDS, not " + strategy
	case cfg.quorum && !cfg.failureDetection:
		why = "WithQuorum needs WithFailureDetection(true)"
	}
	if why != "" {
		return cfg, fmt.Errorf("replobj: %s", why)
	}
	_, err := cfg.scheduler(0)
	return cfg, err
}

// checkNewGroup reports why a group of n replicas named id cannot be
// created, or nil.
func (c *Cluster) checkNewGroup(id GroupID, n int) error {
	if n <= 0 {
		return fmt.Errorf("replobj: group %q needs at least one replica", id)
	}
	if _, dup := c.groups[id]; dup {
		return fmt.Errorf("replobj: group %q already exists", id)
	}
	return nil
}

// newGroup creates a group from parsed options, once checkNewGroup has
// passed. NewGroup and NewSharded create groups here.
func (c *Cluster) newGroup(id GroupID, n int, cfg groupConfig) *Group {
	members := make([]NodeID, n)
	for i := range members {
		members[i] = wire.ReplicaID(id, i)
	}
	c.dir.Add(id, members)
	g := &Group{
		id:       id,
		cluster:  c,
		cfg:      cfg,
		handlers: make(map[string]Handler),
		replicas: make(map[int]*replica.Replica),
		members:  members,
		traces:   make(map[int]*obs.Trace),
	}
	c.groups[id] = g
	return g
}

func (cfg *groupConfig) scheduler(rank int) (adets.Scheduler, error) {
	if cfg.factory != nil {
		return cfg.factory(rank), nil
	}
	switch cfg.kind {
	case SEQ:
		return seq.New(), nil
	case SL:
		return seq.NewSL(), nil
	case SAT:
		return sat.New(sat.Basic()), nil
	case ADSAT, "":
		return sat.New(), nil
	case MAT:
		return mat.New(), nil
	case LSA:
		var opts []lsa.Option
		if cfg.lsaPeriod > 0 {
			opts = append(opts, lsa.WithPeriod(cfg.lsaPeriod))
		}
		return lsa.New(opts...), nil
	case PDS:
		p := cfg.pds
		p.Variant = pds.PDS1
		return pds.New(p), nil
	case PDS2:
		p := cfg.pds
		p.Variant = pds.PDS2
		return pds.New(p), nil
	case CC:
		var opts []cc.Option
		if cfg.ccLanes > 0 {
			opts = append(opts, cc.WithLanes(cfg.ccLanes))
		}
		return cc.New(opts...), nil
	}
	return nil, fmt.Errorf("replobj: unknown scheduler kind %q", cfg.kind)
}

// Register binds a method handler on every (future) replica. Must precede
// Start/StartRank.
func (g *Group) Register(method string, h Handler) {
	g.handlers[method] = h
}

// Start launches all replicas in this process.
func (g *Group) Start() {
	for i := range g.members {
		g.StartRank(i)
	}
}

// StartRank launches a single replica — the deployment entry point when
// the group's other ranks run in other processes (cmd/replnode).
func (g *Group) StartRank(rank int) {
	if rank < 0 || rank >= len(g.members) {
		return
	}
	if _, running := g.replicas[rank]; running {
		return
	}
	sched, err := g.cfg.scheduler(rank)
	if err != nil {
		return // validated at NewGroup; unreachable
	}
	rcfg := replica.Config{
		RT:              g.cluster.nodeRuntime(),
		Group:           g.id,
		Self:            g.members[rank],
		Directory:       g.cluster.dir,
		Network:         g.cluster.net,
		Scheduler:       sched,
		State:           g.cfg.state,
		CheckpointEvery: g.cfg.checkpointEvery,
		Shard:           g.cfg.shard,
		GCS: gcs.Config{
			FailureDetection: g.cfg.failureDetection,
			Quorum:           g.cfg.quorum,
		},
		Metrics: g.cluster.metrics,
		Spans:   g.cluster.spans,
	}
	if g.cfg.traceRetain > 0 {
		tr := obs.NewTrace(g.cfg.traceRetain)
		g.traces[rank] = tr
		rcfg.Trace = tr
	}
	r := replica.New(rcfg)
	for m, h := range g.handlers {
		r.Register(m, h)
	}
	g.replicas[rank] = r
	r.Start()
}

// Stop shuts all locally running replicas down.
func (g *Group) Stop() {
	for _, r := range g.replicas {
		r.Stop()
	}
}

// Members returns the group's replica node ids in rank order.
func (g *Group) Members() []NodeID {
	return append([]NodeID(nil), g.members...)
}

// Replica returns the rank's locally running replica, or nil.
func (g *Group) Replica(rank int) *replica.Replica { return g.replicas[rank] }

// Trace returns the rank's schedule trace (nil unless the group was built
// with WithSchedTrace and the rank was started).
func (g *Group) Trace(rank int) *ScheduleTrace { return g.traces[rank] }

// ClientOption configures a client stub.
type ClientOption func(*client.Config)

// WithReplyPolicy selects the reply-collection policy (default Majority).
func WithReplyPolicy(p ReplyPolicy) ClientOption {
	return func(c *client.Config) { c.Policy = p }
}

// WithInvocationTimeout bounds one invocation end to end.
func WithInvocationTimeout(d time.Duration) ClientOption {
	return func(c *client.Config) { c.Timeout = d }
}

// WithRetransmit sets the client retransmission interval.
func WithRetransmit(d time.Duration) ClientOption {
	return func(c *client.Config) { c.Retransmit = d }
}

// NewClient creates a client stub attached to the cluster's network.
func (c *Cluster) NewClient(name string, opts ...ClientOption) *Client {
	cfg := client.Config{
		RT:        c.nodeRuntime(),
		Name:      name,
		Directory: c.dir,
		Network:   c.net,
		Spans:     c.spans,
		Metrics:   c.metrics,
		Closed:    c.forget,
	}
	for _, o := range opts {
		o(&cfg)
	}
	c.clientsMu.Lock()
	defer c.clientsMu.Unlock()
	cfg.Incarnation = c.incarnations[name]
	c.incarnations[name]++
	cl := client.New(cfg)
	c.clients = append(c.clients, cl)
	return cl
}

// forget lets go of a closed client.
func (c *Cluster) forget(cl *client.Client) {
	c.clientsMu.Lock()
	c.clients = slices.DeleteFunc(c.clients, func(x *client.Client) bool { return x == cl })
	c.clientsMu.Unlock()
}

// Client is the replication-aware stub.
type Client = client.Client

// Table1 returns the implemented schedulers' capability matrix in the
// paper's Table 1 layout, with the sequential baseline first.
func Table1() string {
	rows := []adets.Table1Row{
		adets.Row("SEQ", seq.New().Capabilities()),
		adets.Row("Eternal", seq.NewSL().Capabilities()),
		adets.Row("SAT", sat.New(sat.Basic()).Capabilities()),
		adets.Row("ADETS-SAT", sat.New().Capabilities()),
		adets.Row("ADETS-MAT", mat.New().Capabilities()),
		adets.Row("LSA", lsa.New().Capabilities()),
		adets.Row("PDS", pds.New(pds.Config{}).Capabilities()),
		adets.Row("ADETS-CC", cc.New().Capabilities()),
	}
	return adets.FormatTable1(rows)
}

// Runtime is the execution substrate interface (virtual or real time).
type Runtime = vtime.Runtime

// NewVirtualRuntime returns the discrete-event substrate used for
// simulations and experiments: time advances only when every tracked
// goroutine is blocked, so sweeps run in milliseconds and reproducibly.
func NewVirtualRuntime() *vtime.VirtualRuntime { return vtime.Virtual() }

// NewRealRuntime returns the wall-clock substrate for real deployments.
func NewRealRuntime() *vtime.RealRuntime { return vtime.Real() }

// Run executes fn on a tracked goroutine of rt and blocks until it
// returns — the bridge from main() into a runtime.
func Run(rt Runtime, fn func()) { vtime.Run(rt, "main", fn) }

// Mailbox is a runtime-integrated FIFO queue: Get parks the calling
// tracked goroutine, so the virtual kernel accounts for the blocked
// reader. Use it (never a bare channel receive) whenever a tracked
// goroutine must wait for another under a virtual runtime.
type Mailbox[T any] = vtime.Mailbox[T]

// NewMailbox creates a Mailbox on rt; the name appears in deadlock dumps.
func NewMailbox[T any](rt Runtime, name string) *Mailbox[T] {
	return vtime.NewMailbox[T](rt, name)
}
