// Package client implements the replication-aware client stub: it submits
// an invocation request to the group's contact member — the sequencer, as
// far as the client knows — whose total-order broadcast carries it to the
// others, retransmits to every member on silence, deduplicates replies per
// replica, and returns once the configured reply policy is satisfied.
// DESIGN.md §6 has the protocol: contact, introduction, relay, and what a
// failure costs.
//
// The default policy is Majority: FTflex-style infrastructures do not trust
// a single reply under fail-over, and — as DESIGN.md explains — waiting for
// a majority is what makes ADETS-LSA's follower lag visible at the client,
// as in the paper's measurements.
package client

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"time"

	"github.com/replobj/replobj/internal/gcs"
	"github.com/replobj/replobj/internal/obs"
	"github.com/replobj/replobj/internal/obs/tracing"
	"github.com/replobj/replobj/internal/replica"
	"github.com/replobj/replobj/internal/transport"
	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

// ReplyPolicy decides how many replica replies complete an invocation.
type ReplyPolicy int

// Reply policies.
const (
	// Majority waits for ⌊n/2⌋+1 replies (default).
	Majority ReplyPolicy = iota
	// First returns on the first reply.
	First
	// All waits for every replica.
	All
)

func (p ReplyPolicy) need(n int) int {
	switch p {
	case First:
		return 1
	case All:
		return n
	default:
		return n/2 + 1
	}
}

func (p ReplyPolicy) String() string {
	switch p {
	case First:
		return "first"
	case All:
		return "all"
	default:
		return "majority"
	}
}

// ErrTimeout is returned when the reply policy is not satisfied in time.
var ErrTimeout = errors.New("client: invocation timed out")

// Config parameterizes a client.
type Config struct {
	RT        vtime.Runtime
	Name      string
	Directory *replica.Directory
	Network   transport.Network
	Policy    ReplyPolicy
	// Incarnation counts the clients that bore Name before this one. A
	// client numbers its calls from Incarnation<<32, so a name's next bearer
	// neither repeats an id nor reads its predecessor's at-most-once row.
	Incarnation uint64
	// Timeout bounds one invocation end to end (default 30s).
	Timeout time.Duration
	// Retransmit is the retransmission interval (default 2s).
	Retransmit time.Duration
	// Spans, when non-nil, enables end-to-end request tracing: every
	// invocation allocates a deterministic trace context that rides the
	// wire, and the client records the root "rtt" span plus one "reply"
	// span per replica answer.
	Spans *tracing.Collector
	// Metrics, when non-nil, receives the client-side shard routing series
	// (routed and redirect counters) from Routers created off this client.
	Metrics *obs.Registry
	// Closed, when non-nil, is called by the first Close once the client is
	// detached: whoever keeps a set of clients (a Cluster) lets go of it.
	Closed func(*Client)
}

// Client is a replication-aware stub. Safe for use by one goroutine at a
// time per Client; create one per simulated client.
type Client struct {
	rt      vtime.Runtime
	self    wire.NodeID
	dir     *replica.Directory
	ep      transport.Endpoint
	policy  ReplyPolicy
	timeout time.Duration
	retry   time.Duration
	spans   *tracing.Collector
	metrics *obs.Registry
	closed  func(*Client)

	// guarded by the runtime lock
	groups  map[wire.GroupID]*contact
	cur     call          // the one invocation in flight; reused by the next
	parker  *vtime.Parker // the invoking goroutine waits here, call after call
	reqSeq  uint64
	stopped bool
}

// contact is what the client has learned about one group it invokes.
type contact struct {
	// info is the Directory entry the rest was learned under; a different
	// entry for the group (it was registered again) voids it.
	info *replica.GroupInfo
	// rank indexes info.Members: the member a request's one copy goes to.
	// It starts at the initial sequencer, rank 0 (gcs.View.Sequencer), and
	// moves only after a call that needed a retransmission, to the
	// lowest-ranked member that answered it — the sequencer of the view the
	// group has changed to if rank 0 is gone — so a dead contact costs one
	// retransmit interval once, not once per request.
	rank int
	// introduced is set once a request has gone to every member. Over TCP a
	// replica answers a client outside its address registry over the
	// connection the client dialed, so each must have heard from the client
	// once before its replies can arrive.
	introduced bool
}

// call is the state of the invocation in flight. A Client serves one
// goroutine at a time, so there is exactly one, and its reply slots are
// reused from call to call.
type call struct {
	active  bool
	id      wire.InvocationID
	members []wire.NodeID // the group in rank order (the Directory's slice: read-only)
	slots   []replySlot   // slots[i] is members[i]'s answer
	got     int           // filled slots
	need    int
	done    bool
	ctx     tracing.Context // zero when tracing is off
	t0      time.Duration   // submit time (tracing only)
	// sub is the request's one Submit cell, sent to the contact and again
	// on every retransmission, and req the Request it nests (as &req): Send
	// borrows both, and only invoke writes them.
	sub gcs.Submit
	req replica.Request
}

// replySlot holds one replica's answer to the call. Its Result is a copy in
// buf, the slot's own buffer, reused from call to call: the reply was lent.
type replySlot struct {
	reply replica.Reply
	ok    bool
	buf   []byte
}

// maxSlotBuf bounds the result buffer a slot keeps for the next call, so
// one large result is not pinned by an idle client for good.
const maxSlotBuf = 64 << 10

// New builds a client stub.
func New(cfg Config) *Client {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.Retransmit <= 0 {
		cfg.Retransmit = 2 * time.Second
	}
	c := &Client{
		rt:      cfg.RT,
		self:    wire.ClientID(cfg.Name),
		dir:     cfg.Directory,
		policy:  cfg.Policy,
		timeout: cfg.Timeout,
		retry:   cfg.Retransmit,
		spans:   cfg.Spans,
		metrics: cfg.Metrics,
		closed:  cfg.Closed,
		groups:  make(map[wire.GroupID]*contact),
		reqSeq:  cfg.Incarnation << 32,
	}
	c.parker = vtime.NewParker("client-call/" + string(c.self))
	c.ep = cfg.Network.Endpoint(c.self)
	c.ep.Serve(c.receive)
	return c
}

// Close detaches the client.
func (c *Client) Close() {
	c.rt.Lock()
	first := !c.stopped
	c.stopped = true
	if c.cur.active {
		c.rt.Unpark(c.parker)
	}
	c.rt.Unlock()
	c.ep.Close()
	if first && c.closed != nil {
		c.closed(c)
	}
}

// receive files a replica's reply and wakes the caller once the policy is
// met. On TCP it runs on the reader that decoded the frame and must not
// block: it fills a slot and unparks the caller, under the runtime lock.
// The reply is lent until receive returns, its Result a window into the
// frame: a slot it fills keeps a copy in the slot's buffer, and a reply it
// drops costs no copy.
func (c *Client) receive(msg wire.Message) {
	reply, ok := msg.Payload.(*replica.Reply)
	if !ok {
		return
	}
	now := c.rt.Now() // before taking the lock: Now() locks internally
	c.rt.Lock()
	defer c.rt.Unlock()
	cl := &c.cur
	slot := c.slotLocked(reply)
	if slot == nil {
		return
	}
	if cl.ctx.Valid() && c.spans != nil {
		// One span per replica answer, from submit to arrival; its parent is
		// the replica's exec span when the reply carried one, else the root.
		parent := cl.ctx.Span
		if reply.Trace.Valid() {
			parent = reply.Trace.Span
		}
		c.spans.Record(tracing.Span{
			Trace:  cl.ctx.TraceID,
			ID:     tracing.NewSpanID(cl.ctx.TraceID, "reply", string(reply.From), cl.t0),
			Parent: parent,
			Name:   "reply",
			Node:   string(c.self),
			Detail: string(reply.From),
			Start:  cl.t0,
			Dur:    now - cl.t0,
		})
	}
	slot.reply, slot.ok = *reply, true
	if reply.Result != nil {
		slot.buf = append(slot.buf[:0], reply.Result...)
		slot.reply.Result = slot.buf
	}
	cl.got++
	if cl.got >= cl.need {
		cl.done = true
		c.rt.Unpark(c.parker)
	}
}

// slotLocked returns the empty slot reply belongs in, or nil when it is
// not (or no longer) wanted: an answer to an earlier call, one that arrives
// after the policy was met, one from a node outside the invoked group, or a
// second one from the same replica.
func (c *Client) slotLocked(reply *replica.Reply) *replySlot {
	cl := &c.cur
	if !cl.active || cl.done || cl.id != reply.ID {
		return nil
	}
	for i, m := range cl.members {
		if m == reply.From && !cl.slots[i].ok {
			return &cl.slots[i]
		}
	}
	return nil
}

// Invoke calls a method on a replicated object group and blocks until the
// reply policy is satisfied or the timeout expires. It must run on a
// tracked goroutine.
func (c *Client) Invoke(group wire.GroupID, method string, args []byte) ([]byte, error) {
	best, err := c.invokeReply(group, method, args, "")
	if err != nil {
		return nil, err
	}
	return best.Result, best.Failure()
}

// invokeReply runs an invocation and returns the deterministically chosen
// reply — the lowest-ranked responder; all correct replicas answer
// identically — with a Result of its own (see owned). Unlike Invoke it
// surfaces the whole Reply, which the shard Router needs: a wrong-shard
// redirect is a reply Code. shardKey, when non-empty, is the key the Router
// routed the request by.
func (c *Client) invokeReply(group wire.GroupID, method string, args []byte, shardKey string) (replica.Reply, error) {
	cl, err := c.invoke(group, method, args, c.policy, shardKey)
	if err != nil {
		return replica.Reply{}, err
	}
	c.rt.Lock()
	defer c.rt.Unlock()
	for i := range cl.slots {
		if cl.slots[i].ok {
			return cl.slots[i].owned(), nil
		}
	}
	return replica.Reply{}, errors.New("client: no reply recorded")
}

// InvokeAll waits for every replica's reply (policy All for this call) and
// returns them per node — used by consistency checks and tooling.
func (c *Client) InvokeAll(group wire.GroupID, method string, args []byte) (map[wire.NodeID]replica.Reply, error) {
	cl, err := c.invoke(group, method, args, All, "")
	if err != nil {
		return nil, err
	}
	c.rt.Lock()
	out := make(map[wire.NodeID]replica.Reply, cl.got)
	for i, slot := range cl.slots {
		if slot.ok {
			out[cl.members[i]] = slot.owned()
		}
	}
	c.rt.Unlock()
	return out, nil
}

// owned returns the slot's reply with a Result the caller owns: the slot's
// buffer is written again by the next call.
func (s *replySlot) owned() replica.Reply {
	r := s.reply
	r.Result = bytes.Clone(r.Result)
	return r
}

// invoke runs the request/retransmit/collect loop until policy is
// satisfied. A non-empty shardKey is stamped on the request for the shard's
// admission check. The returned call is the client's reusable one: read it
// under the runtime lock, before the next invoke.
//
// The first transmission is one copy to the group's contact, whose total
// order carries the request to the other members. The first time this
// client addresses the group it goes to every member instead (see contact).
// Every retransmission goes to every member, so a dead contact, a lost copy,
// a lost Ordered and lost replies all cost one retransmit interval and no
// more.
func (c *Client) invoke(group wire.GroupID, method string, args []byte, policy ReplyPolicy, shardKey string) (*call, error) {
	info := c.dir.Group(group)
	if info == nil || len(info.Members) == 0 {
		return nil, fmt.Errorf("client: unknown group %q", group)
	}
	members := info.Members
	need := policy.need(len(members))
	c.rt.Lock()
	if c.stopped {
		c.rt.Unlock()
		return nil, errors.New("client: closed")
	}
	cl := &c.cur
	if cl.active {
		c.rt.Unlock()
		return nil, errors.New("client: concurrent invocations on one Client")
	}
	ct := c.groups[group]
	if ct == nil || ct.info != info {
		ct = &contact{info: info}
		c.groups[group] = ct
	}
	// The first transmission goes to the contact, or to every member while
	// the client is not yet introduced.
	n, rank := len(members), ct.rank
	copies := 1
	if !ct.introduced {
		copies = n
		ct.introduced = true
	}
	c.reqSeq++
	// The group layer and the replicas alike name the call, and the logical
	// thread it starts, by (self, call number): no text is built for it.
	id := wire.InvocationID{Logical: wire.LogicalID(c.self), Call: c.reqSeq}
	slots := slices.Grow(cl.slots[:0], len(members))[:len(members)]
	for i := range slots {
		buf := slots[i].buf
		if cap(buf) > maxSlotBuf {
			buf = nil
		}
		slots[i] = replySlot{buf: buf[:0]}
	}
	*cl = call{active: true, id: id, members: members, slots: slots, need: need}
	if c.spans != nil {
		// The trace id is a pure function of the logical thread's text —
		// deterministic from (client, call), identical on every process
		// that sees the request. The root span's id is the trace id.
		tid := tracing.TraceID(id.Thread().String())
		cl.ctx = tracing.Context{TraceID: tid, Span: tid}
		cl.t0 = c.rt.NowLocked()
	}
	ctx, t0 := cl.ctx, cl.t0
	cl.req = replica.Request{
		ID:       id,
		Group:    group,
		Method:   method,
		Args:     args,
		Kind:     replica.KindClient,
		ReplyTo:  c.self,
		Trace:    ctx,
		ShardKey: shardKey,
	}
	// A pointer to the call's own Request crosses the interface without
	// boxing it; Own gives receivers that keep a copy a *Request of their
	// own.
	cl.sub = gcs.Submit{Group: group, Origin: c.self, Call: id.Call, Payload: &cl.req}
	sub := &cl.sub
	c.rt.Unlock()

	shardLabel := ""
	if shardKey != "" {
		shardLabel = string(group)
	}
	for k := range copies {
		c.ep.Send(members[(rank+k)%n], sub)
	}

	deadline := c.rt.Now() + c.timeout
	defer func() {
		c.rt.Lock()
		cl.active, cl.sub, cl.req = false, gcs.Submit{}, replica.Request{} // an idle client pins no arguments
		c.rt.Unlock()
	}()
	retransmitted := false
	for {
		now := c.rt.Now() // before taking the lock: Now() locks internally
		c.rt.Lock()
		if cl.done {
			if retransmitted {
				for i := range cl.slots {
					if cl.slots[i].ok {
						ct.rank = i
						break
					}
				}
			}
			c.rt.Unlock()
			break
		}
		remaining := deadline - now
		if remaining <= 0 {
			got := cl.got
			c.rt.Unlock()
			return nil, fmt.Errorf("%w: %s.%s after %v (got %d/%d replies)",
				ErrTimeout, group, method, c.timeout, got, need)
		}
		wait := c.retry
		if wait > remaining {
			wait = remaining
		}
		// A wakeup that is not a timeout only means "look again": the
		// parker outlives the call, so it may still hold the permit of a
		// reply that completed the previous one.
		timedOut := c.rt.ParkTimeout(c.parker, wait)
		stopped := c.stopped
		c.rt.Unlock()
		if stopped {
			return nil, errors.New("client: closed")
		}
		if timedOut {
			retransmitted = true
			for _, m := range members { // replicas deduplicate
				c.ep.Send(m, sub)
			}
		}
	}
	if c.spans != nil && ctx.Valid() {
		end := c.rt.Now()
		c.spans.Record(tracing.Span{
			Trace:  ctx.TraceID,
			ID:     ctx.TraceID, // root span: id == trace id
			Name:   "rtt",
			Node:   string(c.self),
			Shard:  shardLabel,
			Detail: string(group) + "." + method,
			Start:  t0,
			Dur:    end - t0,
		})
	}
	return cl, nil
}

// NodeID returns the client's transport identity.
func (c *Client) NodeID() wire.NodeID { return c.self }
