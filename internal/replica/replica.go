// Package replica implements the object-replication runtime: the object
// adapter (at-most-once semantics, method dispatch), the integration of the
// deterministic thread scheduler between the group communication module and
// the object implementation (exactly the FTflex layering of the paper's
// Section 5.1), and the nested-invocation machinery with logical-thread
// tagging and callback detection.
package replica

import (
	"bytes"
	"errors"
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
	// Call numbers a client's invocations: this is the Call-th one ReplyTo
	// made, the number at-most-once compares (see amo.go). 0 is unnumbered.
	Call uint64
	// Trace is the optional trace context allocated at client submit; the
	// zero value (tracing off) takes no room on the wire (see binary.go).
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

// Code is the runtime's verdict on a request it answered without (or
// instead of) the handler's own result. Only the runtime sets one — at the
// ordered dispatch point, in the duplicate-submit hook, when relaying a
// dual-home forward — and never by looking at a handler's error: whatever
// text a handler returns, its reply carries CodeNone.
type Code uint8

// Reply codes.
const (
	// CodeNone: no runtime verdict; Err, if set, is the handler's.
	CodeNone Code = iota
	// CodeRedirect: a shard replica validated the request against another
	// routing table than the sender's (or is not the key's home); ShardEpoch
	// is its installed epoch. The request did not execute.
	CodeRedirect
	// CodeExpiredDuplicate: a copy of a request older than its client's
	// latest call, or one whose reply has aged out of the duplicate-detection
	// window (see evictStableLocked). At-most-once can no longer replay the
	// original reply, and silence would leave the client retrying forever.
	CodeExpiredDuplicate
)

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
	// epoch: what a router refreshes towards on a CodeRedirect, information
	// on the acks of the _shard/* control methods.
	ShardEpoch uint64
	Code       Code
}

// Failure returns the reply's error as an invoker sees it: nil for a
// success, otherwise an *Error that keeps the code next to the text.
func (p Reply) Failure() error {
	if p.Err == "" {
		return nil
	}
	return &Error{Code: p.Code, Msg: p.Err}
}

// Error is the error of a failed invocation, as returned by the client
// stub, the shard router and nested invocations. Because the code travels
// beside the message, a runtime verdict survives being passed up through a
// nested hop, where errors.As finds it again.
type Error struct {
	Code Code
	Msg  string
}

func (e *Error) Error() string { return e.Msg }

// hasCode reports whether err is, or wraps, an invocation Error with code.
func hasCode(err error, code Code) bool {
	var e *Error
	return errors.As(err, &e) && e.Code == code
}

// IsExpiredDuplicate reports whether an invocation error marks a
// retransmission whose original reply was evicted from the reply cache.
// The caller cannot learn the outcome of the original execution; it must
// treat the request as possibly-executed.
func IsExpiredDuplicate(err error) bool { return hasCode(err, CodeExpiredDuplicate) }

// TraceCtx implements tracing.Traced.
func (p Reply) TraceCtx() tracing.Context { return p.Trace }

var (
	_ tracing.Traced = Request{}
	_ tracing.Traced = Reply{}
)

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
	// enables sequencer spontaneous-order hints (gcs.Config.HintDeliver, set
	// where speculation proper runs) and early scheduling (conflict classes
	// fed to ADETS-CC at arrival time), and makes the group a direct-copy
	// group (gcs.Config.OptimisticDeliver). The group's Directory entry must
	// be registered with DirectCopies set alongside, or clients send the
	// followers nothing to act on.
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
	order           *obs.Stream // the "order" stream of trace: one event per delivery
	spans           *tracing.Collector
	inflight        *obs.Gauge
	cacheHits       *obs.Counter
	dupReplies      *obs.Counter
	dupExpired      *obs.Counter
	unknownMsgs     *obs.Counter
	specAttempts    *obs.Counter
	specHits        *obs.Counter
	specAborts      *obs.Counter
	specMismatches  *obs.Counter
	specHintMatches *obs.Counter
	specRefreshes   *obs.Counter
	specForkReuses  *obs.Counter
	specCatchUps    *obs.Counter
	specSkipped     *obs.Counter
	cacheEntries    *obs.Gauge
	cacheBytes      *obs.Gauge
	clientRows      *obs.Gauge
	idRows          *obs.Gauge
	checkpoints     *obs.Counter
	ckptSkipped     *obs.Counter
	snapSize        *obs.Gauge
	snapErrors      *obs.Counter
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
	// The at-most-once table (see amo.go): clients holds one row per client,
	// its latest numbered call; amo the unnumbered requests of the window,
	// amoOrder their ids in first-seen order. held / heldBytes count the
	// replies both keep.
	clients     map[wire.NodeID]*clientRow
	amo         map[wire.InvocationID]amoEntry
	amoOrder    ring.Queue[wire.InvocationID]
	held        int
	heldBytes   int
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
	pendingCallbacks map[wire.LogicalID][]*dispatched
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
		clients:          make(map[wire.NodeID]*clientRow),
		amo:              make(map[wire.InvocationID]amoEntry),
		logicalLive:      make(map[wire.LogicalID]int),
		nested:           make(map[wire.InvocationID]*nestedCall),
		earlyReplies:     make(map[wire.InvocationID]Reply),
		nestedWaiting:    make(map[wire.LogicalID]int),
		pendingCallbacks: make(map[wire.LogicalID][]*dispatched),
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
	r.order = cfg.Trace.Stream("order")
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
		r.unknownMsgs = cfg.Metrics.Counter("replobj_replica_unknown_messages_total" + label)
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
		r.snapErrors = cfg.Metrics.Counter("replobj_replica_snapshot_install_errors_total" + label)
		r.cacheEntries = cfg.Metrics.Gauge("replobj_replica_reply_cache_entries" + label)
		r.cacheBytes = cfg.Metrics.Gauge("replobj_replica_reply_cache_bytes" + label)
		r.clientRows = cfg.Metrics.Gauge(`replobj_replica_amo_rows{node="` + string(cfg.Self) + `",kind="client"}`)
		r.idRows = cfg.Metrics.Gauge(`replobj_replica_amo_rows{node="` + string(cfg.Self) + `",kind="id"}`)
		cfg.Trace.ExportRetained(cfg.Metrics.Gauge("replobj_trace_events_retained" + label))
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
	// the retransmitted request's ordered position: when the row has aged
	// out of the duplicate-detection window, replay is impossible and the
	// client gets a CodeExpiredDuplicate reply instead of eternal silence.
	// A request the table calls fresh and ordered above the eviction floor
	// has not been dispatched locally yet, and resolves when the delivery
	// arrives.
	g.DuplicateSubmit = func(sub gcs.Submit, seq uint64) {
		req, ok := sub.Payload.(Request)
		if !ok || req.Kind != KindClient {
			return
		}
		r.rt.Lock()
		verdict, e := r.classifyLocked(req.ref())
		if verdict == amoFresh && seq <= r.evictFloor {
			verdict, e.At = amoExpired, seq
		}
		stopped := r.stopped
		r.rt.Unlock()
		if !stopped && verdict != amoFresh && r.answerDuplicate(&req, verdict, e) {
			r.dupReplies.Inc()
		}
	}
	if r.specMgr != nil {
		g.HintDeliver = r.onHint // the sequencer announces positions early
	}
	// Without forkable state (or on a sharded group) speculation proper is
	// off, but conflict classes are still fed to an early-scheduling-capable
	// scheduler at arrival time. Either way the members act on the clients'
	// own copies, so clients keep sending one to each (the Directory entry
	// says the same to them) and, the hook being set, no member passes one on.
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
		// Neither layer knows the payload. In a cluster built from one tree
		// that does not happen; a rate here is the first sign of a peer that
		// frames its messages differently.
		r.unknownMsgs.Inc()
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
		r.order.RecordN(obs.KindExec, d.ID, d.Seq)
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

// dispatched carries one request from its ordered dispatch point through
// the scheduler to its handler: the request, the routing epoch captured at
// dispatch and the Invocation the handler will see, in a single allocation
// whose exec method is the scheduler's Exec callback. It is also the form
// in which a request waits where it cannot be scheduled yet — parked behind
// a migration's handoff, or as a callback deferred behind its originator.
type dispatched struct {
	inv     Invocation
	seq     uint64
	classes []string      // conflict classes, computed once at dispatch
	tSubmit time.Duration // scheduler hand-off time (traced requests only)
}

// conflictClasses evaluates the group's class function on req (nil: global).
func (r *Replica) conflictClasses(req *Request) []string {
	if r.classes == nil {
		return nil
	}
	return r.classes(req.Method, req.Args)
}

// newReply starts the reply to req, carrying the request's trace context
// back. (The reply of an executed request points at its exec span instead.)
func (r *Replica) newReply(req *Request) Reply {
	reply := Reply{ID: req.ID, From: r.self}
	if req.Trace.Valid() {
		reply.Trace = req.Trace
	}
	return reply
}

// dispatchRequest applies at-most-once semantics, asks shard admission for
// its verdict and acts on it. Everything here happens at a totally ordered
// point under one hold of the runtime lock, so the classification
// (duplicate? redirect? callback?) and the routing table an accepted
// request executes against are pure functions of the stream — identical on
// every replica.
func (r *Replica) dispatchRequest(req Request, seq uint64) {
	d := &dispatched{inv: Invocation{r: r, req: req}, seq: seq, classes: r.conflictClasses(&req)}
	r.rt.Lock()
	if r.stopped {
		r.rt.Unlock()
		return
	}
	ref := req.ref()
	if verdict, e := r.classifyLocked(ref); verdict != amoFresh {
		r.rt.Unlock()
		r.cacheHits.Inc()
		r.answerDuplicate(&req, verdict, e)
		return
	}
	r.enterLocked(ref, seq, req.ShardKey)
	verdict, redirect := r.admission(d)
	if verdict == verdictAccept {
		r.admit(d)
		return
	}
	r.rt.Unlock()
	switch verdict {
	case verdictControl:
		r.applyControl(req, seq)
	case verdictRedirect:
		r.shardRedirects.Inc()
		r.sendReply(req, redirect)
	case verdictPark:
		r.migParked.Inc()
	}
}

// verdictKind is what shard admission decides about a fresh request at its
// ordered position.
type verdictKind uint8

const (
	// verdictAccept: schedule it — to execute under d.inv.epoch, or, with
	// d.inv.forward set, to be relayed to the key's new home.
	verdictAccept verdictKind = iota
	// verdictControl: a reserved _shard/* method, applied inline.
	verdictControl
	// verdictRedirect: wrong epoch or wrong home; admission returns the
	// reply, already cached.
	verdictRedirect
	// verdictPark: accepted under the next epoch, held on the stream whose
	// handoff still carries its key.
	verdictPark
)

// admission validates a fresh request against the installed routing table
// and a ring transition in progress, fills in what an accepted request
// executes under (d.inv.epoch, d.inv.forward) and does the verdict's
// bookkeeping. Called under the runtime lock; unsharded groups and unrouted
// requests (ShardEpoch 0) are accepted unexamined.
func (r *Replica) admission(d *dispatched) (verdictKind, Reply) {
	if r.shard == nil {
		return verdictAccept, Reply{}
	}
	req := &d.inv.req
	if controlMethods[req.Method] != nil {
		return verdictControl, Reply{}
	}
	cur := r.shard.Current()
	d.inv.epoch = cur
	if req.ShardEpoch == 0 {
		return verdictAccept, Reply{}
	}
	m := r.mig
	// under is the table the sender routed by, if this replica holds it: the
	// installed one or, during a transition, the next (the client refreshed
	// ahead of this group's fence).
	var under *shard.Epoch
	switch {
	case req.ShardEpoch == cur.Table.Epoch:
		under = cur
	case m != nil && req.ShardEpoch == m.next.Table.Epoch:
		under = m.next
	}
	var home wire.GroupID // where the request belongs; none under a foreign epoch
	if under != nil {
		home = r.group
		if req.ShardKey != "" {
			home = under.Ring.HomeGroup(req.ShardKey)
		}
	}
	if home != r.group {
		reply := r.newReply(req)
		reply.Code = CodeRedirect
		reply.Err = shard.RedirectError(cur.Table.Epoch, req.ShardKey, home)
		reply.ShardEpoch = cur.Table.Epoch
		r.storeReplyLocked(req.ref(), reply)
		return verdictRedirect, reply
	}
	d.inv.epoch = under
	if m != nil && req.ShardKey != "" {
		mv, moved := m.plan.MoveOf(req.ShardKey)
		switch {
		case !moved:
		case under == cur && m.cutDone && mv.Source == r.group:
			// Dual-home window: the key's state has already left with the
			// cut, but the fence has not flipped this request's epoch yet.
			// Relay it over the ordered cross-shard path to its new home
			// instead of redirecting — the client keeps its in-flight call.
			m.forwarded++
			r.migForwarded.Inc()
			d.inv.epoch, d.inv.forward = m.next, true
		case under == m.next && mv.Target == r.group:
			// Valid on the new home, but parked while the key's handoff is
			// still in flight.
			if s := m.incoming[mv.Source]; s != nil && !s.done {
				s.parked = append(s.parked, d)
				return verdictPark, Reply{}
			}
		}
	}
	r.shardRouted.Inc()
	if len(req.CrossKeys) > 0 {
		r.shardCross.Inc()
	}
	return verdictAccept, Reply{}
}

// controlFunc applies one reserved control method at its ordered position
// and returns the ack's result.
type controlFunc func(r *Replica, req Request, seq uint64) ([]byte, error)

// controlMethods is the ordered control plane of a shard-group member.
// Every verdict depends only on (installed tables, migration progress,
// args), all of them functions of the stream, so each replica accepts or
// rejects identically.
var controlMethods = map[string]controlFunc{
	shard.EpochMethod:   (*Replica).installTable,
	shard.PrepareMethod: (*Replica).prepareMigration,
	shard.StatusMethod:  (*Replica).migrationProgress,
	shard.FenceMethod:   (*Replica).fenceMigration,
}

// applyControl runs a control method inline at its request's ordered
// position — outside the scheduler: the control plane must not contend
// with application threads — and acknowledges it like any invocation, with
// the table epoch the method left installed, so the orchestrator learns
// the outcome.
func (r *Replica) applyControl(req Request, seq uint64) {
	reply := r.newReply(&req)
	result, err := controlMethods[req.Method](r, req, seq)
	if err != nil {
		reply.Err = err.Error()
	} else {
		reply.Result = result
	}
	reply.ShardEpoch = r.shard.Current().Table.Epoch
	r.rt.Lock()
	r.storeReplyLocked(req.ref(), reply)
	r.rt.Unlock()
	r.sendReply(req, reply)
}

// installedTable is the ack of a control method that leaves a table
// installed: that table, encoded.
func (r *Replica) installedTable() ([]byte, error) {
	return r.shard.Current().Table.Encode(), nil
}

// installTable applies a shard.EpochMethod table update. Install is
// idempotent for replayed epochs.
func (r *Replica) installTable(req Request, _ uint64) ([]byte, error) {
	t, err := shard.DecodeTable(req.Args)
	if err == nil {
		err = r.shard.Install(t)
	}
	if err != nil {
		return nil, err
	}
	r.shardEpochG.Set(int64(r.shard.Current().Table.Epoch))
	return r.installedTable()
}

// admit is the tail of every accepted request's dispatch, whether it comes
// straight from the ordered stream or out of a migration's parking lot:
// journal, speculation's verdict, callback classification, scheduler
// hand-off. It is entered with the runtime lock held and releases it.
func (r *Replica) admit(d *dispatched) {
	req := &d.inv.req
	if r.journal != nil && req.Kind == KindClient {
		r.journal(*req)
	}
	var act specAction
	if r.specMgr != nil {
		act = r.specDispatchLocked(req, d.seq, d.classes)
		r.specPending++
	}
	logical := req.Logical()
	callback := r.logicalLive[logical] > 0
	r.logicalLive[logical]++
	deferred := callback && r.nestedWaiting[logical] == 0
	if deferred {
		// The originating thread has not reached its nested invocation on
		// this replica yet (it lags structurally, e.g. an LSA follower
		// waiting for a mutex-table grant). Running the callback now would
		// execute "later" code of the logical thread before "earlier" code.
		// Defer it; Invoke flushes it once the originator is in place — off
		// the ordered stream, so it then carries no stream position for a
		// scheduler to key a decision on.
		d.seq = 0
		r.pendingCallbacks[logical] = append(r.pendingCallbacks[logical], d)
	}
	r.rt.Unlock()
	r.specDispatchFinish(req, act)
	if !deferred {
		r.submit(d, callback)
	}
}

// submit hands a request to the scheduler.
func (r *Replica) submit(d *dispatched, callback bool) {
	req := &d.inv.req
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
		Classes:  d.classes,
		Seq:      d.seq,
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
	r.inflight.Inc()
	defer r.inflight.Dec()
	if d.inv.forward {
		r.executeForward(&d.inv)
	} else {
		r.execute(&d.inv)
	}
}

// Logical returns the logical thread of a request.
func (req Request) Logical() wire.LogicalID { return req.ID.Logical }

func (r *Replica) execute(inv *Invocation) {
	req := &inv.req
	traced := r.spans != nil && req.Trace.Valid()
	var tStart time.Duration
	if traced {
		tStart = r.rt.Now()
	}
	reply := Reply{ID: req.ID, From: r.self}
	if h, ok := r.handlers[req.Method]; !ok {
		reply.Err = fmt.Sprintf("replica: unknown method %q", req.Method)
	} else {
		var err error
		if reply.Result, err = h(inv); err != nil {
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
	r.complete(req, reply)
}

// complete publishes the reply of a request that went through the
// scheduler: reply cache, the logical thread's liveness and span binding,
// speculation's account of an early reply, and the send.
func (r *Replica) complete(req *Request, reply Reply) {
	logical := req.Logical()
	r.rt.Lock()
	r.storeReplyLocked(req.ref(), reply)
	r.logicalLive[logical]--
	if r.logicalLive[logical] == 0 {
		delete(r.logicalLive, logical)
		if r.spans != nil && req.Trace.Valid() {
			r.spans.Unbind(string(logical))
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
				if sr, ok := srep.(Reply); ok && sr.Code == reply.Code && sr.Err == reply.Err && bytes.Equal(sr.Result, reply.Result) {
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
		r.sendReply(*req, reply)
	}
}

// sendReply routes a reply: directly to the client, or into the
// originating group's total order for nested invocations.
func (r *Replica) sendReply(req Request, reply Reply) {
	switch req.Kind {
	case KindClient:
		r.ep.Send(req.ReplyTo, reply)
	case KindNested:
		r.submitTo(req.Origin, "nested-reply/"+req.ID.String(), reply)
	}
}

// submitTo submits payload into another group's total order under id: one
// copy to every member, since any replica of this group may be the one that
// crashed and the target dedups the group-wide resubmissions by id.
func (r *Replica) submitTo(group wire.GroupID, id string, payload any) {
	var sub any = gcs.Submit{Group: group, ID: id, Origin: r.self, Payload: payload}
	for _, m := range r.dir.Members(group) {
		r.ep.Send(m, sub)
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

// answerDuplicate answers a request the table did not call fresh (e is the
// entry classifyLocked returned) and reports whether from the cache:
// otherwise with a typed refusal when the reply is no longer kept, and not at
// all while the original is still executing and will reply.
func (r *Replica) answerDuplicate(req *Request, verdict amoVerdict, e amoEntry) bool {
	switch {
	case verdict == amoExpired:
		r.sendExpired(req, e.At)
	case e.Done:
		r.sendReply(*req, r.reply(req.ID, &e))
		return true
	}
	return false
}

// sendExpired tells a client that the reply of the request it retransmitted
// is gone: superseded or evicted at stream position seq.
func (r *Replica) sendExpired(req *Request, seq uint64) {
	r.dupExpired.Inc()
	reply := r.newReply(req)
	reply.Code = CodeExpiredDuplicate
	reply.Err = "replica: duplicate expired: reply evicted at stream position " + strconv.FormatUint(seq, 10)
	r.sendReply(*req, reply)
}

// Scheduler exposes the scheduler (capability metadata, tests).
func (r *Replica) Scheduler() adets.Scheduler { return r.sched }

// Member exposes the group member (tests).
func (r *Replica) Member() *gcs.Member { return r.member }
