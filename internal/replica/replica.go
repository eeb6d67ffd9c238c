// Package replica implements the object-replication runtime: the object
// adapter (at-most-once semantics, method dispatch), the integration of the
// deterministic thread scheduler between the group communication module and
// the object implementation (exactly the FTflex layering of the paper's
// Section 5.1), and the nested-invocation machinery with logical-thread
// tagging and callback detection.
package replica

import (
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
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{m: make(map[wire.GroupID]*GroupInfo)}
}

// Add registers (or replaces) a group's membership in rank order.
func (d *Directory) Add(g wire.GroupID, members []wire.NodeID) {
	info := &GroupInfo{Members: append([]wire.NodeID(nil), members...)}
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
	// ID names the invocation and its logical thread. A client numbers its
	// calls: a client's request is the ID.Call-th one ReplyTo made, the
	// number at-most-once compares (see amo.go), and ID.Logical is ReplyTo.
	// A nested request inherits its caller's thread. Call 0 is unnumbered.
	ID      wire.InvocationID
	Group   wire.GroupID
	Method  string
	Args    []byte
	Kind    RequestKind
	ReplyTo wire.NodeID  // client endpoint (KindClient)
	Origin  wire.GroupID // originating group (KindNested)
	// Trace is the optional trace context allocated at client submit; the
	// zero value (tracing off) takes no room on the wire (see binary.go).
	Trace tracing.Context
	// ShardKey is the key class the request was routed by; sharded replicas
	// verify at the ordered dispatch point that they are its home. Empty
	// marks unrouted traffic, which skips shard validation.
	ShardKey string
}

// TraceCtx implements tracing.Traced.
func (req Request) TraceCtx() tracing.Context { return req.Trace }

// Code is the runtime's verdict on a request it answered without (or
// instead of) the handler's own result. Only the runtime sets one — at the
// ordered dispatch point or in the duplicate-submit hook — and never by
// looking at a handler's error: whatever text a handler returns, its reply
// carries CodeNone.
type Code uint8

// Reply codes.
const (
	// CodeNone: no runtime verdict; Err, if set, is the handler's.
	CodeNone Code = iota
	// CodeRedirect: a shard replica is not the home of the request's shard
	// key. The request did not execute.
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
	Code  Code
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
	// CheckpointEvery, when positive, takes a deterministic checkpoint at
	// every n-th position of the totally-ordered stream: the scheduler is
	// quiesced, the object state is serialized by its Snapshotter (empty
	// without State), and the group member
	// learns the checkpoint so it can truncate its retransmission log and
	// serve snapshot-based state transfer to rejoiners whose tail has been
	// truncated. The trigger is a pure function of the stream, so every
	// replica checkpoints (or deterministically skips) the same boundaries.
	CheckpointEvery int
	// Shard, if non-nil, marks this replica a member of a sharded object's
	// shard group and is the ring of the object's table, fixed at creation:
	// requests routed with a shard key are validated against it at their
	// ordered dispatch point (wrong home → deterministic redirect reply).
	Shard *shard.Ring
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
	rt      vtime.Runtime
	group   wire.GroupID
	self    wire.NodeID
	dir     *Directory
	ep      transport.Endpoint
	member  *gcs.Member
	sched   adets.Scheduler
	reent   *adets.Reentrancy
	state   any
	classes func(method string, args []byte) []string

	// shard is non-nil on shard-group members (see Config.Shard);
	// shardLabel tags this replica's spans with its shard group id so the
	// latency breakdown decomposes per shard.
	shard      *shard.Ring
	shardLabel string

	// ckptEvery is Config.CheckpointEvery (0 = checkpointing off).
	ckptEvery uint64

	// Observability (all nil-safe; nil when disabled).
	schedObs       *adets.SchedObs
	trace          *obs.Trace
	order          *obs.Stream // the "order" stream of trace: one event per delivery
	spans          *tracing.Collector
	inflight       *obs.Gauge
	cacheHits      *obs.Counter
	dupReplies     *obs.Counter
	dupExpired     *obs.Counter
	unknownMsgs    *obs.Counter
	cacheEntries   *obs.Gauge
	cacheBytes     *obs.Gauge
	clientRows     *obs.Gauge
	idRows         *obs.Gauge
	checkpoints    *obs.Counter
	ckptSkipped    *obs.Counter
	snapSize       *obs.Gauge
	snapErrors     *obs.Counter
	ckptDuration   *obs.Histogram
	shardRouted    *obs.Counter
	shardRedirects *obs.Counter

	handlers map[string]Handler

	// All fields below are guarded by the runtime lock.
	// The at-most-once table (see amo.go): clients holds one row per client,
	// its latest numbered call; amo the unnumbered requests of the window,
	// amoOrder their ids in first-seen order. held / heldBytes count the
	// replies both keep.
	clients         map[wire.NodeID]*clientRow
	amo             map[wire.InvocationID]amoEntry
	amoOrder        ring.Queue[wire.InvocationID]
	held, heldBytes int
	// threads holds one record per live logical thread (see logical.go).
	threads map[wire.ThreadID]logicalThread
	stopped bool
	// free holds up to maxFree dispatch records for reuse (see dispatched).
	free []*dispatched
	// evictFloor is the highest stream position whose reply-cache entries
	// evictStableLocked has dropped; duplicates ordered at or below it are
	// answered with a typed expired-duplicate error.
	evictFloor uint64
}

// New wires a replica together: transport endpoint, group member,
// scheduler.
func New(cfg Config) *Replica {
	r := &Replica{
		rt:       cfg.RT,
		group:    cfg.Group,
		self:     cfg.Self,
		dir:      cfg.Directory,
		sched:    cfg.Scheduler,
		handlers: make(map[string]Handler),
		clients:  make(map[wire.NodeID]*clientRow),
		amo:      make(map[wire.InvocationID]amoEntry),
		threads:  make(map[wire.ThreadID]logicalThread),
	}
	if cfg.State != nil {
		r.state = cfg.State()
	}
	if cfg.Shard != nil {
		r.shard = cfg.Shard
		r.shardLabel = string(cfg.Group)
	}
	if cc, ok := r.state.(ConflictClasser); ok {
		r.classes = cc.ConflictClasses
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
	// seq is 0 for a call the group layer found below its client's latest
	// ordered call: it will never be ordered, and is refused the same way.
	// A request the table calls fresh and ordered above the eviction floor
	// has not been dispatched locally yet, and resolves when the delivery
	// arrives.
	g.DuplicateSubmit = func(sub gcs.Submit, seq uint64) {
		req, ok := sub.Payload.(*Request)
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
		if !stopped && verdict != amoFresh && r.answerDuplicate(req, verdict, e) {
			r.dupReplies.Inc()
		}
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

// Start starts the scheduler, serves the endpoint and launches the
// dispatch loop.
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
	r.ep.Serve(r.receive)
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

// receive feeds one message to the group member. On TCP it runs on the
// reader that decoded the frame and must not block: Handle is one event
// under the runtime lock whose finish only enqueues sends and calls
// DuplicateSubmit (sends a reply).
func (r *Replica) receive(msg wire.Message) {
	if r.member.Handle(msg.From, msg.Payload) {
		return
	}
	// The member does not know the payload. In a cluster built from one tree
	// that does not happen; a rate here is the first sign of a peer that
	// frames its messages differently.
	r.unknownMsgs.Inc()
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
		// across replicas, so the "order" stream digests are comparable. A
		// client's call is folded as "<origin>#<call>", with no string built.
		if d.Call != 0 {
			r.order.RecordCall(obs.KindExec, string(d.Origin), d.Call, d.Seq)
		} else {
			r.order.RecordN(obs.KindExec, d.ID, d.Seq)
		}
		if d.NewView != nil {
			r.sched.ViewChanged(*d.NewView)
			if d.Payload == nil {
				continue
			}
		}
		switch p := d.Payload.(type) {
		case *Request:
			r.dispatchRequest(*p, d.Seq)
		case *Reply:
			r.dispatchNestedReply(*p)
		default:
			if p != nil {
				r.sched.HandleOrdered(d.ID, p)
			}
		}
		if r.ckptEvery > 0 && d.Seq%r.ckptEvery == 0 {
			r.checkpoint(d.Seq)
		}
	}
}

// dispatched carries one request from its ordered dispatch point through
// the scheduler to its handler: the request and the Invocation the handler
// will see. It is also the form in which a callback deferred behind its
// originator waits. Records are reused: a replica keeps up to maxFree of
// them, and run, the record's exec method bound once when it was
// allocated, is the scheduler's Exec callback for every request it
// carries, so a warm replica allocates neither per request. complete
// returns the record, zeroed but for run, once it has stored the reply: no
// path may keep the record, its Invocation or a pointer into its request
// past that point. Whatever outlives the execution (the reply's addressee)
// is copied out first.
type dispatched struct {
	inv     Invocation
	seq     uint64
	classes []string            // conflict classes, computed once at dispatch
	tSubmit time.Duration       // scheduler hand-off time (traced requests only)
	run     func(*adets.Thread) // exec, bound once
}

// maxFree bounds a replica's free dispatch records: enough for the
// requests one replica has in its scheduler at a time, so that a burst
// pins little once it has drained.
const maxFree = 64

// takeLocked returns a record to carry an admitted request: a free one, or
// a new one with its exec method bound.
func (r *Replica) takeLocked() *dispatched {
	if n := len(r.free); n > 0 {
		d := r.free[n-1]
		r.free = r.free[:n-1]
		return d
	}
	d := new(dispatched)
	d.run = d.exec
	return d
}

// releaseLocked takes d back once its request is complete. The record is
// zeroed, so that it holds on to neither the request's bytes nor its
// thread while it waits.
func (r *Replica) releaseLocked(d *dispatched) {
	if len(r.free) < maxFree {
		*d = dispatched{run: d.run}
		r.free = append(r.free, d)
	}
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

// dispatchRequest applies at-most-once semantics and shard admission, then
// hands the request to the logical thread's arrive and the scheduler. Everything up to the hand-off happens at a totally
// ordered point under one hold of the runtime lock, so the classification
// (duplicate? redirect? callback?) is a pure function of the stream —
// identical on every replica.
//
// The record is taken only once the request is admitted, and the paths past
// the hand-off read the request from req, never from the record: a deferred
// callback's record can be flushed, run and reused by its originator's
// thread as soon as the lock is released.
func (r *Replica) dispatchRequest(req Request, seq uint64) {
	classes := r.conflictClasses(&req)
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
	r.enterLocked(ref, seq)
	if redirect, ok := r.misroutedLocked(&req); ok {
		r.rt.Unlock()
		r.shardRedirects.Inc()
		r.sendReply(req, redirect)
		return
	}
	d := r.takeLocked()
	d.inv, d.seq, d.classes = Invocation{r: r, req: req}, seq, classes
	callback, deferred := r.arriveLocked(d)
	r.rt.Unlock()
	if !deferred {
		r.submit(d, callback)
	}
}

// misroutedLocked is shard admission: a request for a key homed on another
// shard group is answered with a redirect, cached like any reply, and
// reported true. Unsharded groups and unrouted requests (no ShardKey) pass
// unexamined. Called under the runtime lock.
func (r *Replica) misroutedLocked(req *Request) (Reply, bool) {
	if r.shard == nil || req.ShardKey == "" {
		return Reply{}, false
	}
	if home := r.shard.HomeGroup(req.ShardKey); home != r.group {
		reply := r.newReply(req)
		reply.Code = CodeRedirect
		reply.Err = shard.RedirectError(req.ShardKey, home)
		r.storeReplyLocked(req.ref(), reply)
		return reply, true
	}
	r.shardRouted.Inc()
	return Reply{}, false
}

// submit hands a request to the scheduler.
func (r *Replica) submit(d *dispatched, callback bool) {
	req := &d.inv.req
	if r.spans != nil && req.Trace.Valid() {
		// The grant hooks only see the logical thread; the binding lets
		// them resolve it back to this request's trace (see SchedObs).
		r.spans.Bind(req.ID.Thread(), req.Trace)
		d.tSubmit = r.rt.Now()
	}
	r.sched.Submit(adets.Request{
		ID:       req.ID,
		Logical:  req.ID.Logical,
		Call:     req.ID.Call,
		Callback: callback,
		Classes:  d.classes,
		Seq:      d.seq,
		Exec:     d.run,
	})
}

// exec runs the request on the scheduler thread t.
func (d *dispatched) exec(t *adets.Thread) {
	r := d.inv.r
	d.inv.t = t
	if r.spans != nil && d.inv.req.Trace.Valid() {
		r.recordSpan(&d.inv.req, "sched.wait", d.seq, d.tSubmit)
	}
	r.inflight.Inc()
	defer r.inflight.Dec()
	r.execute(d)
}

// Logical returns the text of a request's logical thread (see
// wire.ThreadID.String), built on every call.
func (req Request) Logical() wire.LogicalID { return wire.LogicalID(req.ID.Thread().String()) }

// execute runs d's handler and completes the request, which releases d.
func (r *Replica) execute(d *dispatched) {
	inv := &d.inv
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
		// Replies (cached ones included) link back to this execution.
		reply.Trace = tracing.Context{TraceID: req.Trace.TraceID, Span: r.recordSpan(req, "exec", 0, tStart)}
	}
	r.complete(d, reply)
}

// recordSpan records req's span name on this replica, from start until now
// and under the request's own span, and returns its id.
func (r *Replica) recordSpan(req *Request, name string, seq uint64, start time.Duration) uint64 {
	id := tracing.NewSpanID(req.Trace.TraceID, name, string(r.self), start)
	r.spans.Record(tracing.Span{Trace: req.Trace.TraceID, ID: id, Parent: req.Trace.Span, Name: name, Node: string(r.self),
		Shard: r.shardLabel, Detail: req.Method, Seq: seq, Start: start, Dur: r.rt.Now() - start})
	return id
}

// complete publishes the reply of a request that went through the
// scheduler: reply cache, the logical thread's leave, and the send. d is
// released under the lock hold that stores the reply: everything after it
// goes by a copy of the request.
func (r *Replica) complete(d *dispatched, reply Reply) {
	r.rt.Lock()
	req := d.inv.req
	r.releaseLocked(d)
	r.storeReplyLocked(req.ref(), reply)
	r.leaveLocked(&req)
	r.rt.Unlock()
	r.sendReply(req, reply)
}

// replyCells holds the cells client replies are sent from: Send only
// borrows its payload, so the cell goes back as soon as Send returns.
var replyCells = sync.Pool{New: func() any { return new(Reply) }}

// sendReply routes a reply: directly to the client, or into the
// originating group's total order for nested invocations.
func (r *Replica) sendReply(req Request, reply Reply) {
	switch req.Kind {
	case KindClient:
		rep := replyCells.Get().(*Reply)
		*rep = reply
		r.ep.Send(req.ReplyTo, rep)
		*rep = Reply{} // a pooled cell pins no result
		replyCells.Put(rep)
	case KindNested:
		nested := reply // escapes on this branch only: a client's reply is not moved to the heap
		r.submitTo(req.Origin, "nested-reply/"+req.ID.String(), &nested)
	}
}

// submitTo submits payload into another group's total order under id: one
// copy to every member, since any replica of this group may be the one that
// crashed and the target dedups the group-wide resubmissions by id.
func (r *Replica) submitTo(group wire.GroupID, id string, payload any) {
	sub := &gcs.Submit{Group: group, ID: id, Origin: r.self, Payload: payload}
	for _, m := range r.dir.Members(group) {
		r.ep.Send(m, sub)
	}
}

// dispatchNestedReply delivers a nested reply to its logical thread and
// resumes the thread that waits for it, if one does.
func (r *Replica) dispatchNestedReply(reply Reply) {
	r.rt.Lock()
	t := r.deliverReplyLocked(reply)
	r.rt.Unlock()
	if t != nil {
		r.sched.EndNested(t)
	}
}

// answerDuplicate answers a request the table did not call fresh (e is the
// entry classifyLocked returned) and reports whether from the cache:
// otherwise with a typed refusal when the reply is gone (superseded or
// evicted at e.At), and not at all while the original is still executing
// and will reply.
func (r *Replica) answerDuplicate(req *Request, verdict amoVerdict, e amoEntry) bool {
	switch {
	case verdict == amoExpired:
		r.dupExpired.Inc()
		reply := r.newReply(req)
		reply.Code = CodeExpiredDuplicate
		reply.Err = "replica: duplicate expired: reply evicted at stream position " + strconv.FormatUint(e.At, 10)
		r.sendReply(*req, reply)
	case e.Done:
		r.sendReply(*req, r.reply(req.ID, &e))
		return true
	}
	return false
}

// Scheduler exposes the scheduler (capability metadata, tests).
func (r *Replica) Scheduler() adets.Scheduler { return r.sched }

// Runtime returns the runtime the replica's monitors lock.
func (r *Replica) Runtime() vtime.Runtime { return r.rt }

// Member exposes the group member (tests).
func (r *Replica) Member() *gcs.Member { return r.member }
