// Package replica implements the object-replication runtime: the object
// adapter (at-most-once semantics, method dispatch), the integration of the
// deterministic thread scheduler between the group communication module and
// the object implementation (exactly the FTflex layering of the paper's
// Section 5.1), and the nested-invocation machinery with logical-thread
// tagging and callback detection.
package replica

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"
	"time"

	"github.com/replobj/replobj/internal/adets"
	"github.com/replobj/replobj/internal/gcs"
	"github.com/replobj/replobj/internal/obs"
	"github.com/replobj/replobj/internal/obs/tracing"
	"github.com/replobj/replobj/internal/ring"
	"github.com/replobj/replobj/internal/shard"
	"github.com/replobj/replobj/internal/spec"
	"github.com/replobj/replobj/internal/transport"
	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

// Directory maps groups to their replica node ids; it is the deployment
// descriptor shared by replicas and clients. It is safe for concurrent use
// so groups can be added while others already run.
type Directory struct {
	mu sync.RWMutex
	m  map[wire.GroupID]*GroupInfo
}

// GroupInfo is one group's directory entry. An entry is never modified
// once published — Add replaces it — so readers share it without copying,
// and a holder learns that the group was re-registered by comparing
// pointers.
type GroupInfo struct {
	// Members are the replica nodes in rank order.
	Members []wire.NodeID
	// DirectCopies marks a group whose members act on a client's own copy
	// of a request before the sequencer's ordered copy reaches them
	// (speculative execution). Clients send every request to all members of
	// such a group; elsewhere one copy to one member suffices and the total
	// order carries it to the rest.
	DirectCopies bool
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{m: make(map[wire.GroupID]*GroupInfo)}
}

// Add registers (or replaces) a group's membership in rank order;
// directCopies is GroupInfo.DirectCopies.
func (d *Directory) Add(g wire.GroupID, members []wire.NodeID, directCopies bool) {
	info := &GroupInfo{Members: append([]wire.NodeID(nil), members...), DirectCopies: directCopies}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.m[g] = info
}

// Group returns g's current entry (nil if unknown). The entry is shared:
// callers must not modify it.
func (d *Directory) Group(g wire.GroupID) *GroupInfo {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.m[g]
}

// Members returns a copy of the replica nodes of g (nil if unknown).
func (d *Directory) Members(g wire.GroupID) []wire.NodeID {
	if info := d.Group(g); info != nil {
		return append([]wire.NodeID(nil), info.Members...)
	}
	return nil
}

// Groups returns all registered group ids.
func (d *Directory) Groups() []wire.GroupID {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]wire.GroupID, 0, len(d.m))
	for g := range d.m {
		out = append(out, g)
	}
	return out
}

// RequestKind distinguishes top-level client requests from nested
// invocations issued by another replicated object.
type RequestKind uint8

// Request kinds.
const (
	KindClient RequestKind = iota
	KindNested
)

// Request is a method invocation travelling through the total order.
type Request struct {
	ID      wire.InvocationID
	Group   wire.GroupID
	Method  string
	Args    []byte
	Kind    RequestKind
	ReplyTo wire.NodeID  // client endpoint (KindClient)
	Origin  wire.GroupID // originating group (KindNested)
	// Trace is the optional trace context allocated at client submit. The
	// zero value (tracing off) keeps the pre-tracing wire encoding
	// byte-identical; a non-zero context selects the traced payload tag
	// (see binary.go).
	Trace tracing.Context
	// ShardEpoch is the directory epoch the submitter routed under; 0 marks
	// unrouted traffic, which skips shard validation. A sharded replica
	// redirects requests whose epoch differs from its installed table.
	ShardEpoch uint64
	// ShardKey is the key class the request was routed by; sharded replicas
	// verify at the ordered dispatch point that they are its home.
	ShardKey string
	// CrossKeys lists additional key classes the invocation touches that may
	// be homed on other shards; the handler reaches them through
	// Invocation.InvokeShard (or locally when co-homed). Non-empty CrossKeys
	// mark the request as a cross-shard operation.
	CrossKeys []string
}

// TraceCtx implements tracing.Traced.
func (req Request) TraceCtx() tracing.Context { return req.Trace }

// Reply is an invocation result. Client replies travel directly; nested
// replies are submitted into the originating group's total order so every
// replica resumes the blocked thread at the same position.
type Reply struct {
	ID     wire.InvocationID
	From   wire.NodeID
	Result []byte
	Err    string
	// Trace carries the request's trace id and the executing replica's
	// exec span, so the client links its reply span under the execution.
	Trace tracing.Context
	// ShardEpoch, when non-zero, is the replying shard's installed routing
	// epoch. Combined with a wrong-shard Err it is the redirect signal the
	// client router refreshes on; EpochMethod acks carry it informationally.
	ShardEpoch uint64
}

// TraceCtx implements tracing.Traced.
func (p Reply) TraceCtx() tracing.Context { return p.Trace }

func init() {
	wire.RegisterPayload(Request{})
	wire.RegisterPayload(Reply{})
}

// Handler executes one method; it may use every Invocation facility
// (locks, condition variables, nested invocations, simulated computation).
type Handler func(inv *Invocation) ([]byte, error)

// ConflictClasser is implemented by object states that declare conflict
// classes dynamically, per request. The result must be a pure function of
// (method, args) — identical on every replica — and names the classes the
// request may touch; nil or empty means "global" (conflicts with
// everything). Conflict-aware schedulers (ADETS-CC) execute requests with
// disjoint class sets in parallel.
type ConflictClasser interface {
	ConflictClasses(method string, args []byte) []string
}

// Config assembles a replica.
type Config struct {
	RT        vtime.Runtime
	Group     wire.GroupID
	Self      wire.NodeID
	Directory *Directory
	Network   transport.Network
	Scheduler adets.Scheduler
	// State, if non-nil, builds this replica's private object state,
	// retrievable in handlers via Invocation.State. Each replica gets its
	// own instance; handlers must guard access with scheduler locks.
	State func() any
	// Journal, if non-nil, is invoked for every fresh (non-duplicate)
	// request at its totally-ordered dispatch point — the hook passive
	// replication uses to log what the primary executed since the last
	// checkpoint (paper Section 1).
	Journal func(Request)
	// Classes, if non-nil, maps a request to its declared conflict classes
	// for conflict-aware scheduling (ADETS-CC). It must be a pure function
	// of (method, args) — it is evaluated at the totally-ordered dispatch
	// point and every replica must compute the same set. Nil or an empty
	// result marks the request "global" (conflicts with everything). When
	// nil, a State instance implementing ConflictClasser is used instead.
	Classes func(method string, args []byte) []string
	// CheckpointEvery, when positive, takes a deterministic checkpoint at
	// every n-th position of the totally-ordered stream: the scheduler is
	// quiesced, the object state is serialized (via Snapshotter, or gob for
	// plain pointer states with exported fields), and the group member
	// learns the checkpoint so it can truncate its retransmission log and
	// serve snapshot-based state transfer to rejoiners whose tail has been
	// truncated. The trigger is a pure function of the stream, so every
	// replica checkpoints (or deterministically skips) the same boundaries.
	CheckpointEvery int
	// Speculative enables speculative execution on optimistic delivery (see
	// speculate.go): arriving submits are executed immediately against a
	// fork of the state and the precomputed reply is released when the total
	// order confirms the speculation as conflict-free. Requires State (the
	// factory builds the forks); ignored on sharded groups, whose requests
	// are validated and possibly redirected at their ordered position. Also
	// enables sequencer spontaneous-order hints and early scheduling
	// (conflict classes fed to ADETS-CC at arrival time). The group's
	// Directory entry must be registered with DirectCopies set alongside,
	// or clients send the followers nothing to act on.
	Speculative bool
	// Shard, if non-nil, marks this replica a member of a sharded object's
	// shard group: requests routed with a shard epoch are validated against
	// the installed table at their ordered dispatch point (wrong epoch or
	// wrong home → deterministic redirect reply), and the reserved
	// shard.EpochMethod control request installs table updates in-stream.
	Shard *shard.GroupState
	// GCS carries the group communication knobs (failure detection etc.);
	// Group/Self/Members/Send are filled in by the replica.
	GCS gcs.Config
	// Metrics, if non-nil, receives counters/gauges/histograms from the
	// scheduler, the group member, and the replica itself.
	Metrics *obs.Registry
	// Spans, if non-nil, receives per-request spans (scheduler wait,
	// execution) from this replica, its group member and its scheduler
	// hooks. Requests without a trace context record nothing.
	Spans *tracing.Collector
	// Trace, if non-nil, records the deterministic schedule trace
	// (scheduler decisions plus the totally-ordered dispatch stream) whose
	// rolling digests must agree across replicas.
	Trace *obs.Trace
}

// Replica is one member of a replicated object group.
type Replica struct {
	rt     vtime.Runtime
	group  wire.GroupID
	self   wire.NodeID
	dir    *Directory
	ep     transport.Endpoint
	member *gcs.Member
	sched  adets.Scheduler
	reent  *adets.Reentrancy
	state  any
	// stateFactory is Config.State, retained so speculative executions can
	// build private fork instances (nil when speculation is off).
	stateFactory func() any
	journal      func(Request)
	classes      func(method string, args []byte) []string

	// shard is non-nil on shard-group members (see Config.Shard);
	// shardLabel tags this replica's spans with its shard group id so the
	// latency breakdown decomposes per shard.
	shard      *shard.GroupState
	shardLabel string

	// ckptEvery is Config.CheckpointEvery (0 = checkpointing off).
	ckptEvery uint64

	// Observability (all nil-safe; nil when disabled).
	schedObs        *adets.SchedObs
	trace           *obs.Trace
	spans           *tracing.Collector
	inflight        *obs.Gauge
	cacheHits       *obs.Counter
	dupReplies      *obs.Counter
	dupExpired      *obs.Counter
	specAttempts    *obs.Counter
	specHits        *obs.Counter
	specAborts      *obs.Counter
	specMismatches  *obs.Counter
	specHintMatches *obs.Counter
	specRefreshes   *obs.Counter
	specForkReuses  *obs.Counter
	specCatchUps    *obs.Counter
	specSkipped     *obs.Counter
	checkpoints     *obs.Counter
	ckptSkipped     *obs.Counter
	snapSize        *obs.Gauge
	ckptDuration    *obs.Histogram
	shardRouted     *obs.Counter
	shardRedirects  *obs.Counter
	shardCross      *obs.Counter
	shardEpochG     *obs.Gauge

	// Migration metrics (see migrate.go).
	migActive          *obs.Gauge
	migParked          *obs.Gauge
	migKeysMoved       *obs.Counter
	migChunksSent      *obs.Counter
	migChunksInstalled *obs.Counter
	migForwarded       *obs.Counter

	handlers map[string]Handler

	// All fields below are guarded by the runtime lock.
	seen      map[wire.InvocationID]uint64 // delivered at least once, at this stream position
	seenOrder ring.Queue[wire.InvocationID]
	// seenKey remembers the shard key an accepted routed request carried, so
	// a migration can select the reply-cache entries riding a key move.
	seenKey     map[wire.InvocationID]string
	cache       map[wire.InvocationID]Reply // completed (reply cache)
	logicalLive map[wire.LogicalID]int
	nested      map[wire.InvocationID]*nestedCall
	// earlyReplies buffers nested replies that arrive before this replica's
	// own thread reached the Invoke (possible when a thread lags behind its
	// peers structurally, e.g. an LSA follower waiting for a mutex table).
	earlyReplies map[wire.InvocationID]Reply
	// nestedWaiting counts, per logical thread, local threads inside a
	// nested invocation; callbacks are deferred until the originator has
	// reached its Invoke so the logical program order (pre-invoke code →
	// callback) holds on every replica.
	nestedWaiting    map[wire.LogicalID]int
	pendingCallbacks map[wire.LogicalID][]pendingCallback
	stopped          bool

	// specMgr holds the speculation bookkeeping (nil when Config.Speculative
	// is off or unusable); specPending counts requests dispatched to local
	// execution whose handler has not completed — the state may only be
	// snapshotted for the forks when it is zero (the primary state is then
	// exactly the ordered prefix). evictFloor is the highest stream position whose
	// reply-cache entries evictStableLocked has dropped; duplicates ordered
	// at or below it are answered with a typed expired-duplicate error.
	specMgr     *spec.Manager
	specPending int
	evictFloor  uint64

	// mig is the in-progress ring transition (nil outside migrations);
	// earlyChunks buffers handoff chunks delivered before this group's own
	// prepare. Both are mutated only at ordered dispatch positions.
	mig         *migration
	earlyChunks []MigrateChunk
}

type nestedCall struct {
	thread *adets.Thread
	reply  *Reply
}

// pendingCallback is a deferred callback request plus the shard routing
// epoch captured at its ordered dispatch point — the epoch must travel
// with the request so a table installed between deferral and flush cannot
// change what the callback's handler routes against.
type pendingCallback struct {
	req   Request
	epoch *shard.Epoch
}

// New wires a replica together: transport endpoint, group member,
// scheduler.
func New(cfg Config) *Replica {
	r := &Replica{
		rt:               cfg.RT,
		group:            cfg.Group,
		self:             cfg.Self,
		dir:              cfg.Directory,
		sched:            cfg.Scheduler,
		handlers:         make(map[string]Handler),
		seen:             make(map[wire.InvocationID]uint64),
		seenKey:          make(map[wire.InvocationID]string),
		cache:            make(map[wire.InvocationID]Reply),
		logicalLive:      make(map[wire.LogicalID]int),
		nested:           make(map[wire.InvocationID]*nestedCall),
		earlyReplies:     make(map[wire.InvocationID]Reply),
		nestedWaiting:    make(map[wire.LogicalID]int),
		pendingCallbacks: make(map[wire.LogicalID][]pendingCallback),
	}
	if cfg.State != nil {
		r.state = cfg.State()
	}
	if cfg.Shard != nil {
		r.shard = cfg.Shard
		r.shardLabel = string(cfg.Group)
	}
	if cfg.Speculative && cfg.State != nil && cfg.Shard == nil {
		r.stateFactory = cfg.State
		r.specMgr = spec.NewManager()
	}
	r.journal = cfg.Journal
	r.classes = cfg.Classes
	if r.classes == nil {
		if cc, ok := r.state.(ConflictClasser); ok {
			r.classes = cc.ConflictClasses
		}
	}
	r.ep = cfg.Network.Endpoint(cfg.Self)
	r.trace = cfg.Trace
	r.spans = cfg.Spans
	r.schedObs = adets.NewSchedObs(cfg.Metrics, cfg.Trace, cfg.Scheduler.Name(), string(cfg.Self)).
		WithSpans(cfg.Spans, cfg.RT.NowLocked, string(cfg.Self))
	if cfg.CheckpointEvery > 0 {
		r.ckptEvery = uint64(cfg.CheckpointEvery)
	}
	if cfg.Metrics != nil {
		label := `{node="` + string(cfg.Self) + `"}`
		r.inflight = cfg.Metrics.Gauge("replobj_replica_invocations_in_flight" + label)
		r.cacheHits = cfg.Metrics.Counter("replobj_replica_reply_cache_hits_total" + label)
		r.dupReplies = cfg.Metrics.Counter("replobj_replica_duplicate_submit_replies_total" + label)
		r.dupExpired = cfg.Metrics.Counter("replobj_replica_duplicate_expired_total" + label)
		if r.specMgr != nil {
			r.specAttempts = cfg.Metrics.Counter("replobj_replica_spec_attempts_total" + label)
			r.specHits = cfg.Metrics.Counter("replobj_replica_spec_hits_total" + label)
			r.specAborts = cfg.Metrics.Counter("replobj_replica_spec_aborts_total" + label)
			r.specMismatches = cfg.Metrics.Counter("replobj_replica_spec_mismatches_total" + label)
			r.specHintMatches = cfg.Metrics.Counter("replobj_replica_spec_hint_matches_total" + label)
			// An attempt runs either on a fork restored for it (a refresh:
			// one copy of the whole state, sometimes a snapshot too) or on
			// one reused as it stands; a submit that got no fork is skipped,
			// and a catch-up is a re-run, not an attempt.
			r.specRefreshes = cfg.Metrics.Counter("replobj_replica_spec_refreshes_total" + label)
			r.specForkReuses = cfg.Metrics.Counter("replobj_replica_spec_fork_reuses_total" + label)
			r.specCatchUps = cfg.Metrics.Counter("replobj_replica_spec_catchups_total" + label)
			r.specSkipped = cfg.Metrics.Counter("replobj_replica_spec_skipped_total" + label)
		}
		r.checkpoints = cfg.Metrics.Counter("replobj_replica_checkpoints_total" + label)
		r.ckptSkipped = cfg.Metrics.Counter("replobj_replica_checkpoints_skipped_total" + label)
		r.snapSize = cfg.Metrics.Gauge("replobj_replica_snapshot_bytes" + label)
		r.ckptDuration = cfg.Metrics.Histogram("replobj_replica_checkpoint_seconds"+label, obs.LatencyBuckets())
		if r.shard != nil {
			slabel := `{node="` + string(cfg.Self) + `",shard="` + r.shardLabel + `"}`
			r.shardRouted = cfg.Metrics.Counter("replobj_shard_routed_requests_total" + slabel)
			r.shardRedirects = cfg.Metrics.Counter("replobj_shard_redirects_total" + slabel)
			r.shardCross = cfg.Metrics.Counter("replobj_shard_cross_requests_total" + slabel)
			r.shardEpochG = cfg.Metrics.Gauge("replobj_shard_directory_epoch" + slabel)
			r.shardEpochG.Set(int64(r.shard.Current().Table.Epoch))
			r.migActive = cfg.Metrics.Gauge("replobj_shard_migration_active" + slabel)
			r.migParked = cfg.Metrics.Gauge("replobj_shard_migration_parked" + slabel)
			r.migKeysMoved = cfg.Metrics.Counter("replobj_shard_migration_keys_total" + slabel)
			r.migChunksSent = cfg.Metrics.Counter("replobj_shard_migration_chunks_sent_total" + slabel)
			r.migChunksInstalled = cfg.Metrics.Counter("replobj_shard_migration_chunks_installed_total" + slabel)
			r.migForwarded = cfg.Metrics.Counter("replobj_shard_migration_forwarded_total" + slabel)
		}
	}
	g := cfg.GCS
	g.Group = cfg.Group
	g.Self = cfg.Self
	g.Members = cfg.Directory.Members(cfg.Group)
	g.Send = r.ep.Send
	g.Spans = cfg.Spans
	g.Shard = r.shardLabel
	if g.Stats == nil {
		if r.shard != nil {
			g.Stats = gcs.NewStatsGrouped(cfg.Metrics, string(cfg.Self), r.shardLabel)
		} else {
			g.Stats = gcs.NewStats(cfg.Metrics, string(cfg.Self))
		}
	}
	// A client retransmission of an already-ordered request produces no new
	// delivery, so the dispatch-time duplicate path never sees it. Replay
	// the cached at-most-once reply here instead — the original reply may
	// have been lost in the network, and with replicas down the client may
	// have no slack to reach its reply quorum without this replica. seq is
	// the retransmitted request's ordered position (0 when the member has
	// pruned its mapping): when the reply-cache entry has aged out of the
	// duplicate-detection window, replay is impossible and the client gets
	// a typed expired-duplicate error instead of eternal silence.
	g.DuplicateSubmit = func(sub gcs.Submit, seq uint64) {
		req, ok := sub.Payload.(Request)
		if !ok || req.Kind != KindClient {
			return
		}
		r.rt.Lock()
		cached, done := r.cache[req.ID]
		_, seen := r.seen[req.ID]
		floor := r.evictFloor
		stopped := r.stopped
		r.rt.Unlock()
		if stopped {
			return
		}
		switch {
		case done:
			r.dupReplies.Inc()
			r.sendReply(req, cached)
		case seen:
			// Ordered and still executing: the original execution replies.
		case seq != 0 && seq <= floor:
			r.dupExpired.Inc()
			reply := Reply{ID: req.ID, From: r.self, Err: expiredDuplicateError(seq)}
			if req.Trace.Valid() {
				reply.Trace = req.Trace
			}
			r.sendReply(req, reply)
		}
		// Remaining case — ordered above the eviction floor but not yet
		// dispatched locally — resolves when the delivery arrives.
	}
	if r.specMgr != nil {
		g.SpecHints = true
		g.HintDeliver = r.onHint
	}
	// Without forkable state (or on a sharded group) speculation proper is
	// off, but conflict classes are still fed to an early-scheduling-capable
	// scheduler at arrival time. Either way the members act on the clients'
	// own copies, so clients keep sending one to each (the Directory entry
	// says the same to them) and no member passes one on.
	g.DirectCopies = cfg.Speculative
	if cfg.Speculative {
		g.OptimisticDeliver = r.onOptimisticSubmit
	}
	r.member = gcs.NewMember(cfg.RT, g)
	r.reent = adets.NewReentrancy(cfg.RT, cfg.Scheduler)
	r.reent.SetObs(r.schedObs)
	return r
}

// Register binds a method name to a handler. Must be called before Start.
func (r *Replica) Register(method string, h Handler) {
	r.handlers[method] = h
}

// Start launches the replica's receive and dispatch loops and the
// scheduler.
func (r *Replica) Start() {
	r.sched.Start(adets.Env{
		RT:       r.rt,
		Self:     r.self,
		Peers:    r.dir.Members(r.group),
		SendPeer: r.ep.Send,
		BroadcastOrdered: func(id string, payload any) {
			r.member.Broadcast(id, payload)
		},
		Obs: r.schedObs,
	})
	r.member.Start()
	r.rt.Go("replica-recv/"+string(r.self), r.recvLoop)
	r.rt.Go("replica-dispatch/"+string(r.self), r.dispatchLoop)
}

// Stop tears the replica down.
func (r *Replica) Stop() {
	r.rt.Lock()
	r.stopped = true
	r.rt.Unlock()
	r.sched.Stop()
	r.member.Stop()
	r.ep.Close()
}

// recvLoop feeds transport messages to the group member and the scheduler.
func (r *Replica) recvLoop() {
	for {
		msg, ok := r.ep.Recv()
		if !ok {
			return
		}
		if r.member.Handle(msg.From, msg.Payload) {
			continue
		}
		if r.sched.HandleDirect(msg.From, msg.Payload) {
			continue
		}
		// Unknown direct message: dropped (a real middleware would log).
	}
}

// dispatchLoop consumes the totally ordered stream: requests, nested
// replies, scheduler messages, view changes.
func (r *Replica) dispatchLoop() {
	for {
		d, ok := r.member.Deliver()
		if !ok {
			return
		}
		if d.Snapshot != nil {
			// State transfer in place of a truncated tail: restore and
			// continue at d.Seq+1. Not recorded as a regular trace event —
			// the restored digest state already covers everything up to
			// d.Seq, including the donor's checkpoint event.
			r.installSnapshot(d)
			continue
		}
		// One event per totally-ordered delivery: position and id must agree
		// across replicas, so the "order" stream digests are comparable.
		r.trace.Record("order", obs.KindExec, d.ID, strconv.FormatUint(d.Seq, 10))
		if d.NewView != nil {
			r.sched.ViewChanged(*d.NewView)
			if d.Payload == nil {
				continue
			}
		}
		switch p := d.Payload.(type) {
		case Request:
			r.dispatchRequest(p, d.Seq)
		case Reply:
			r.dispatchNestedReply(p)
		case MigrateChunk:
			r.dispatchMigrateChunk(p)
		default:
			if p != nil {
				r.sched.HandleOrdered(d.ID, p)
			}
		}
		if r.ckptEvery > 0 && d.Seq%r.ckptEvery == 0 {
			r.checkpoint(d.Seq)
		}
		// While a ring transition is armed, retry its pending quiesced work
		// (source cut, target installs) after every delivery.
		r.migrationStep(d.Seq)
	}
}

// dispatchRequest applies at-most-once semantics and hands fresh requests
// to the scheduler. Everything here happens at a totally ordered point, so
// the classification (duplicate? callback?) is identical on every replica.
func (r *Replica) dispatchRequest(req Request, seq uint64) {
	r.rt.Lock()
	if r.stopped {
		r.rt.Unlock()
		return
	}
	if _, dup := r.seen[req.ID]; dup {
		cached, done := r.cache[req.ID]
		r.rt.Unlock()
		r.cacheHits.Inc()
		if done {
			r.sendReply(req, cached)
		}
		// Still executing: the original execution will reply.
		return
	}
	r.markSeenLocked(req.ID, seq, req.ShardKey)
	// Shard control and validation happen here, at the totally ordered
	// dispatch point, so the verdict (install / redirect / accept / forward
	// / park) and the routing table any accepted request will execute
	// against are pure functions of the stream — identical on every replica.
	var epoch *shard.Epoch
	if r.shard != nil {
		switch req.Method {
		case shard.EpochMethod:
			r.rt.Unlock()
			r.applyShardTable(req)
			return
		case shard.PrepareMethod:
			r.rt.Unlock()
			r.applyShardPrepare(req, seq)
			return
		case shard.StatusMethod:
			r.rt.Unlock()
			r.applyShardStatus(req)
			return
		case shard.FenceMethod:
			r.rt.Unlock()
			r.applyShardFence(req)
			return
		}
		epoch = r.shard.Current()
		if req.ShardEpoch != 0 {
			m := r.mig
			var errstr string
			switch {
			case req.ShardEpoch == epoch.Table.Epoch:
				if req.ShardKey != "" {
					if home := epoch.Ring.HomeGroup(req.ShardKey); home != r.group {
						errstr = shard.RedirectError(epoch.Table.Epoch, req.ShardKey, home)
					} else if m != nil && m.cutDone {
						// Dual-home window: the key's state has already left
						// with the cut, but the fence has not flipped this
						// request's epoch yet. Relay it over the ordered
						// cross-shard path to its new home instead of
						// redirecting — the client keeps its in-flight call.
						if mv, moved := m.plan.MoveOf(req.ShardKey); moved && mv.Source == r.group {
							m.forwarded++
							callback := r.logicalLive[req.Logical()] > 0
							r.logicalLive[req.Logical()]++
							next := m.next
							r.rt.Unlock()
							r.migForwarded.Inc()
							r.shardRouted.Inc()
							r.submitForward(req, callback, seq, next, mv.Target)
							return
						}
					}
				}
			case m != nil && req.ShardEpoch == m.next.Table.Epoch:
				// Routed under the transition's target epoch (the client
				// refreshed ahead of this group's fence). Valid on the new
				// home; parked while the key's handoff is still in flight.
				if req.ShardKey != "" {
					if home := m.next.Ring.HomeGroup(req.ShardKey); home != r.group {
						errstr = shard.RedirectError(epoch.Table.Epoch, req.ShardKey, home)
					} else {
						if mv, moved := m.plan.MoveOf(req.ShardKey); moved && mv.Target == r.group {
							if s := m.incoming[mv.Source]; s != nil && !s.done {
								s.parked = append(s.parked, parkedRequest{req: req, seq: seq})
								r.rt.Unlock()
								r.migParked.Inc()
								return
							}
						}
						epoch = m.next
					}
				} else {
					epoch = m.next
				}
			default:
				errstr = shard.RedirectError(epoch.Table.Epoch, "", "")
			}
			if errstr != "" {
				reply := Reply{ID: req.ID, From: r.self, Err: errstr, ShardEpoch: epoch.Table.Epoch}
				if req.Trace.Valid() {
					reply.Trace = req.Trace
				}
				// A redirected request never executes; its key must not ride
				// a migration's reply-cache handoff.
				delete(r.seenKey, req.ID)
				r.cache[req.ID] = reply
				r.rt.Unlock()
				r.shardRedirects.Inc()
				r.sendReply(req, reply)
				return
			}
			r.shardRouted.Inc()
			if len(req.CrossKeys) > 0 {
				r.shardCross.Inc()
			}
		}
	}
	if r.journal != nil && req.Kind == KindClient {
		r.journal(req)
	}
	var act specAction
	if r.specMgr != nil {
		var classes []string
		if r.classes != nil {
			classes = r.classes(req.Method, req.Args)
		}
		act = r.specDispatchLocked(req, seq, classes)
		r.specPending++
	}
	callback := r.logicalLive[req.Logical()] > 0
	r.logicalLive[req.Logical()]++
	if callback && r.nestedWaiting[req.Logical()] == 0 {
		// The originating thread has not reached its nested invocation on
		// this replica yet (it lags structurally, e.g. an LSA follower
		// waiting for a mutex-table grant). Running the callback now would
		// execute "later" code of the logical thread before "earlier" code.
		// Defer it; Invoke flushes it once the originator is in place.
		r.pendingCallbacks[req.Logical()] = append(r.pendingCallbacks[req.Logical()], pendingCallback{req: req, epoch: epoch})
		r.rt.Unlock()
		r.specDispatchFinish(req, act)
		return
	}
	r.rt.Unlock()
	r.specDispatchFinish(req, act)
	r.submitRequest(req, callback, seq, epoch)
}

// applyShardTable installs a table update delivered as a reserved
// shard.EpochMethod control request. It runs at the request's ordered
// position, outside the scheduler — table installs must not contend with
// application threads — and replies like any invocation so the updater
// learns the outcome. Install is idempotent for replayed epochs, and its
// verdict depends only on (installed table, args), so every replica
// accepts or rejects identically.
func (r *Replica) applyShardTable(req Request) {
	reply := Reply{ID: req.ID, From: r.self}
	if req.Trace.Valid() {
		reply.Trace = req.Trace
	}
	t, err := shard.DecodeTable(req.Args)
	if err == nil {
		err = r.shard.Install(t)
	}
	if err != nil {
		reply.Err = err.Error()
	}
	cur := r.shard.Current().Table
	reply.ShardEpoch = cur.Epoch
	if err == nil {
		reply.Result = cur.Encode()
		r.shardEpochG.Set(int64(cur.Epoch))
	}
	r.rt.Lock()
	r.cache[req.ID] = reply
	r.rt.Unlock()
	r.sendReply(req, reply)
}

// dispatched carries one request from its ordered dispatch point through
// the scheduler to its handler: the request, the routing epoch captured at
// dispatch and the Invocation the handler will see, in a single allocation
// whose exec method is the scheduler's Exec callback.
type dispatched struct {
	inv     Invocation
	seq     uint64
	tSubmit time.Duration // scheduler hand-off time (traced requests only)
}

func (r *Replica) submitRequest(req Request, callback bool, seq uint64, epoch *shard.Epoch) {
	var classes []string
	if r.classes != nil {
		classes = r.classes(req.Method, req.Args)
	}
	d := &dispatched{inv: Invocation{r: r, req: req, epoch: epoch}, seq: seq}
	if r.spans != nil && req.Trace.Valid() {
		// The grant hooks only see the logical thread id; the binding lets
		// them resolve it back to this request's trace (see SchedObs).
		r.spans.Bind(string(req.Logical()), req.Trace)
		d.tSubmit = r.rt.Now()
	}
	r.sched.Submit(adets.Request{
		ID:       req.ID,
		Logical:  req.Logical(),
		Callback: callback,
		Classes:  classes,
		Seq:      seq,
		Exec:     d.exec,
	})
}

// exec runs the request on the scheduler thread t.
func (d *dispatched) exec(t *adets.Thread) {
	r, req := d.inv.r, &d.inv.req
	d.inv.t = t
	if r.spans != nil && req.Trace.Valid() {
		tStart := r.rt.Now()
		r.spans.Record(tracing.Span{
			Trace:  req.Trace.TraceID,
			ID:     tracing.NewSpanID(req.Trace.TraceID, "sched.wait", string(r.self), d.tSubmit),
			Parent: req.Trace.Span,
			Name:   "sched.wait",
			Node:   string(r.self),
			Shard:  r.shardLabel,
			Detail: req.Method,
			Seq:    d.seq,
			Start:  d.tSubmit,
			Dur:    tStart - d.tSubmit,
		})
	}
	r.execute(&d.inv)
}

// Logical returns the logical thread of a request.
func (req Request) Logical() wire.LogicalID { return req.ID.Logical }

func (r *Replica) execute(inv *Invocation) {
	r.inflight.Inc()
	defer r.inflight.Dec()
	req := inv.req
	traced := r.spans != nil && req.Trace.Valid()
	var tStart time.Duration
	if traced {
		tStart = r.rt.Now()
	}
	var reply Reply
	h, ok := r.handlers[req.Method]
	if !ok {
		reply = Reply{ID: req.ID, From: r.self, Err: fmt.Sprintf("replica: unknown method %q", req.Method)}
	} else {
		result, err := h(inv)
		reply = Reply{ID: req.ID, From: r.self, Result: result}
		if err != nil {
			reply.Err = err.Error()
		}
	}
	if traced {
		tEnd := r.rt.Now()
		execID := tracing.NewSpanID(req.Trace.TraceID, "exec", string(r.self), tStart)
		r.spans.Record(tracing.Span{
			Trace:  req.Trace.TraceID,
			ID:     execID,
			Parent: req.Trace.Span,
			Name:   "exec",
			Node:   string(r.self),
			Shard:  r.shardLabel,
			Detail: req.Method,
			Start:  tStart,
			Dur:    tEnd - tStart,
		})
		// Replies (cached ones included) link back to this execution.
		reply.Trace = tracing.Context{TraceID: req.Trace.TraceID, Span: execID}
	}
	r.rt.Lock()
	r.cache[req.ID] = reply
	r.logicalLive[req.Logical()]--
	if r.logicalLive[req.Logical()] == 0 {
		delete(r.logicalLive, req.Logical())
		if traced {
			r.spans.Unbind(string(req.Logical()))
		}
	}
	var suppress, mismatch, late bool
	if r.specMgr != nil {
		if r.specPending > 0 {
			r.specPending--
		}
		if req.Kind == KindClient {
			srep, released, l := r.specMgr.Resolve(req.ID.String())
			late = l
			if released {
				if sr, ok := srep.(Reply); ok && sr.Err == reply.Err && bytes.Equal(sr.Result, reply.Result) {
					// The released speculative reply matches: the client has
					// it already, suppress the duplicate send.
					suppress = true
				} else {
					// The speculative reply differed from the ordered one —
					// the handler broke the purity/class-confinement contract.
					// Send the authoritative reply too, surface the event, and
					// trust no fork any further: they carry such writes along.
					mismatch = true
					r.specMgr.DropForks()
				}
			}
		}
	}
	r.rt.Unlock()
	if mismatch {
		r.specMismatches.Inc()
	}
	if late {
		// Confirmed-valid speculation outrun by the ordered execution: the
		// early reply never left, so it counts as a (cheap) abort.
		r.specAborts.Inc()
	}
	if !suppress {
		r.sendReply(req, reply)
	}
}

// sendReply routes a reply: directly to the client, or into the
// originating group's total order for nested invocations.
func (r *Replica) sendReply(req Request, reply Reply) {
	switch req.Kind {
	case KindClient:
		r.ep.Send(req.ReplyTo, reply)
	case KindNested:
		sub := gcs.Submit{
			Group:   req.Origin,
			ID:      "nested-reply/" + req.ID.String(),
			Origin:  r.self,
			Payload: reply,
		}
		for _, m := range r.dir.Members(req.Origin) {
			r.ep.Send(m, sub)
		}
	}
}

// dispatchNestedReply resumes the thread blocked on the invocation, or
// buffers the reply if the local thread has not issued the call yet.
func (r *Replica) dispatchNestedReply(reply Reply) {
	r.rt.Lock()
	nc := r.nested[reply.ID]
	if nc == nil {
		if !r.stopped {
			r.earlyReplies[reply.ID] = reply
		}
		r.rt.Unlock()
		return
	}
	if nc.reply != nil {
		r.rt.Unlock()
		return // duplicate
	}
	cp := reply
	nc.reply = &cp
	t := nc.thread
	r.rt.Unlock()
	r.sched.EndNested(t)
}

const maxSeen = 1 << 14

func (r *Replica) markSeenLocked(id wire.InvocationID, seq uint64, key string) {
	r.seen[id] = seq
	r.seenOrder.Push(id)
	if key != "" {
		r.seenKey[id] = key
	}
	if r.seenOrder.Len() > maxSeen {
		old, _ := r.seenOrder.Pop()
		delete(r.seen, old)
		delete(r.seenKey, old)
		delete(r.cache, old)
	}
}

// Scheduler exposes the scheduler (capability metadata, tests).
func (r *Replica) Scheduler() adets.Scheduler { return r.sched }

// Member exposes the group member (tests).
func (r *Replica) Member() *gcs.Member { return r.member }
