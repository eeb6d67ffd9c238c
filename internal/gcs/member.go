package gcs

import (
	"slices"
	"sync"
	"time"

	"github.com/replobj/replobj/internal/obs/tracing"
	"github.com/replobj/replobj/internal/ring"
	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

// Member is one group member's instance of the total-order protocol.
// All state is guarded by the runtime lock; public methods take it
// internally and must be called without it.
type Member struct {
	rt  vtime.Runtime
	cfg Config

	deliveries *vtime.Mailbox[Delivery]

	view       View
	installing *View // adopted proposal, not yet installed via view event

	// Sequencer state, and what this member knows of message ids (see
	// "message ids" below): one row per origin of numbered ids, and the named
	// ids in ids, pruned first in, first out through idOrder.
	nextSeq uint64
	origins map[wire.NodeID]originRow
	ids     map[string]idEntry
	idOrder ring.Queue[string]

	// Delivery state: everything below nextDeliver has been delivered. The
	// log retains ordered messages for NACK retransmission and view sync,
	// and holds those that arrived ahead of the frontier until it reaches
	// them.
	nextDeliver uint64
	log         window

	// Checkpoint / truncation state. peerAcked records each peer's delivery
	// frontier (piggybacked on heartbeats); the minimum over the current
	// view is the stability watermark. What floorLocked lets go of is below
	// log.lo and can only be recovered via snapshot.
	peerAcked map[wire.NodeID]uint64
	snapSeq   uint64 // latest checkpoint position (0 = none)
	snapData  []byte // latest checkpoint state image

	// Submits seen but possibly not yet ordered, in arrival order in
	// cacheOrder; resubmitted on view change and re-sent by the FD tick once
	// stale.
	submitCache map[key]cachedSubmit
	cacheOrder  ring.Queue[key]

	// maxSeenEpoch is the highest view epoch observed in any protocol
	// message. A sequencer whose installed epoch is below it has been
	// superseded (e.g. it was partitioned away and deposed) and must not
	// order messages until it catches up to the newer view.
	maxSeenEpoch uint64

	// cells are the Ordered payloads orderLocked sends from.
	cells orderedCells

	// Failure detection; lastSeen keeps rows of cfg.Members only.
	lastSeen  map[wire.NodeID]time.Duration
	fdTimer   *vtime.Timer
	syncTimer *vtime.Timer
	syncResps map[wire.NodeID]SyncResp
	stopped   bool
}

// NewMember creates a member. Call Start before use and Stop when done.
// Pinned by benchmark/probes.go.
func NewMember(rt vtime.Runtime, cfg Config) *Member {
	cfg.applyDefaults()
	return &Member{
		rt:          rt,
		cfg:         cfg,
		deliveries:  vtime.NewMailbox[Delivery](rt, "gcs/"+string(cfg.Self)),
		view:        View{Epoch: 0, Members: append([]wire.NodeID(nil), cfg.Members...)},
		nextSeq:     1,
		nextDeliver: 1,
		log:         window{lo: 1},
		origins:     make(map[wire.NodeID]originRow),
		ids:         make(map[string]idEntry),
		submitCache: make(map[key]cachedSubmit),
		lastSeen:    make(map[wire.NodeID]time.Duration),
		peerAcked:   make(map[wire.NodeID]uint64),
	}
}

// Start begins failure detection (if enabled).
func (m *Member) Start() {
	if m.cfg.FailureDetection {
		m.scheduleFDTick()
	}
}

// Stop cancels timers and closes the delivery stream.
func (m *Member) Stop() {
	m.rt.Lock()
	m.stopped = true
	fd, sy := m.fdTimer, m.syncTimer
	m.fdTimer, m.syncTimer = nil, nil
	m.rt.Unlock()
	m.rt.StopTimer(fd)
	m.rt.StopTimer(sy)
	m.deliveries.Close()
}

// Deliver blocks until the next totally-ordered delivery; ok is false after
// Stop.
func (m *Member) Deliver() (Delivery, bool) {
	return m.deliveries.Get()
}

// DeliverTimeout is Deliver with a deadline; the third result reports a
// timeout.
func (m *Member) DeliverTimeout(d time.Duration) (Delivery, bool, bool) {
	return m.deliveries.GetTimeout(d)
}

// View returns the currently installed view.
func (m *Member) View() View {
	m.rt.Lock()
	defer m.rt.Unlock()
	return m.view.clone()
}

// Broadcast submits a payload for total ordering on behalf of this member.
// The id must be globally unique; duplicate ids are ordered at most once.
func (m *Member) Broadcast(id string, payload any) {
	sub := Submit{Group: m.cfg.Group, ID: id, Origin: m.cfg.Self, Payload: payload}
	var act actions
	if m.enter() {
		if st := m.cfg.Stats; st != nil {
			st.Broadcasts.Inc()
		}
		m.handleSubmitLocked(m.cfg.Self, sub, &act)
	}
	m.leave(&act)
}

// SetCheckpoint records a checkpoint taken by the layer above: data stands
// in for every ordered message up to and including seq. The member keeps
// only the latest checkpoint, answers NACKs for truncated positions with
// it, and truncates the retransmission log up to the checkpoint (bounded
// additionally by the stability watermark when failure detection is on).
func (m *Member) SetCheckpoint(seq uint64, data []byte) {
	if m.enter() && seq > m.snapSeq && len(data) > 0 {
		m.snapSeq, m.snapData = seq, data
		m.trimLocked()
	}
	m.rt.Unlock()
}

// LogLen returns the number of retained ordered messages (exposed for the
// bench reporter and tests; the same value feeds the Stats.LogLength gauge).
func (m *Member) LogLen() int {
	m.rt.Lock()
	defer m.rt.Unlock()
	return m.log.n
}

// Handle processes an incoming payload, returning true if it was a group
// communication message for this member's group (consumed), false
// otherwise. The payload is a *T the caller lends until Handle returns:
// each case reads it or passes a copy of it on, and nothing the member keeps
// or sends points into it.
func (m *Member) Handle(from wire.NodeID, payload any) bool {
	if p, isGCS := payload.(interface{ group() wire.GroupID }); !isGCS || p.group() != m.cfg.Group {
		return false
	}
	var act actions
	if m.enter() {
		if slices.Contains(m.cfg.Members, from) {
			m.lastSeen[from] = m.rt.NowLocked() // any member's message is a sign of life
		}
		switch p := payload.(type) {
		case *Submit:
			m.handleSubmitLocked(from, *p, &act)
		case *Ordered:
			m.noteEpochLocked(p.Epoch)
			m.handleOrderedLocked(*p, &act)
		case *Nack:
			if st := m.cfg.Stats; st != nil {
				st.Nacks.Inc()
			}
			m.repairLocked(p.From, p.Want, &act)
		case *Heartbeat:
			m.noteEpochLocked(p.Epoch)
			if p.Acked > m.peerAcked[p.From] {
				m.peerAcked[p.From] = p.Acked
				m.trimLocked() // the stability watermark may have advanced
			}
			// Frontier check: a peer knows an ordered seq we never delivered
			// and no later traffic will open the gap for us — ask the sequencer.
			if m.installing == nil && p.Epoch == m.view.Epoch && p.MaxSeq >= m.nextDeliver {
				m.nackLocked(&act)
			}
		case *Snapshot:
			m.handleSnapshotLocked(*p, &act)
		case *Hint:
			if p.Seq < m.nextDeliver {
				m.settleLocked(p.key(), p.Seq) // an answer to a copy of an ordered id
			}
		case *Propose:
			m.noteEpochLocked(p.View.Epoch)
			m.adoptProposalLocked(p.View, &act)
		case *SyncReq:
			m.noteEpochLocked(p.View.Epoch)
			m.adoptProposalLocked(p.View, &act)
			if p.View.Epoch > m.view.Epoch { // not installed yet: the requester waits for this tail
				act.send(p.From, ptr(m.tailLocked(p.View.Epoch)))
			}
		case *SyncResp:
			m.handleSyncRespLocked(*p, &act)
		}
	}
	m.leave(&act)
	return true
}

// ptr returns a pointer to a new copy of v: a payload to send, made where
// it is sent.
func ptr[T any](v T) *T { return &v }

// --- events ---
//
// Every event — Broadcast, Handle, the FD tick, the view-change grace timer —
// has one shape: enter, work under the runtime lock while queuing in
// an actions value what must happen without it, leave.

// enter takes the runtime lock and reports whether the member still runs: a
// stopped member's events do nothing between enter and leave.
func (m *Member) enter() bool {
	m.rt.Lock()
	return !m.stopped
}

// leave releases the runtime lock and runs what the event queued.
func (m *Member) leave(act *actions) {
	m.rt.Unlock()
	act.finish(m)
}

type outMsg struct {
	to      wire.NodeID
	payload any
}

// actions accumulates what an event does once the runtime lock is released:
// sends (the transport schedules timers, which itself needs the lock) and the
// owner's hooks. Deliveries go straight to the mailbox via PutLocked,
// preserving total order.
type actions struct {
	// Queued sends, in order: the first few in an array — an ordering round
	// in a small group queues no more, so the common event's sends live in
	// the caller's frame — the rest in a slice.
	first  [4]outMsg
	nfirst int
	rest   []outMsg
	// dups are already-ordered submits, with the position each was ordered
	// at, to surface through the DuplicateSubmit hook.
	dups []dupSubmit
	// nacked dedups gap NACKs within one event (see handleOrderedLocked).
	nacked bool
	// cell, then cells, are the Ordered cells the event took, to release
	// once its sends have returned.
	cell  *Ordered
	cells []*Ordered
}

type dupSubmit struct {
	sub Submit
	seq uint64
}

func (a *actions) send(to wire.NodeID, payload any) {
	if a.nfirst < len(a.first) {
		a.first[a.nfirst] = outMsg{to: to, payload: payload}
		a.nfirst++
		return
	}
	a.rest = append(a.rest, outMsg{to: to, payload: payload})
}

// sendAll queues payload for every one of members but m itself and reports
// how many that is. The payload is a pointer the caller made, once, not
// once per peer.
func (a *actions) sendAll(m *Member, members []wire.NodeID, payload any) (n int) {
	for _, peer := range members {
		if peer != m.cfg.Self {
			a.send(peer, payload)
			n++
		}
	}
	return n
}

// finish is the only way out of an event: the queued sends, then the
// duplicate-submit notifications (queued only where the hook is set), which
// may call back into the replica layer.
func (a *actions) finish(m *Member) {
	for _, s := range a.first[:a.nfirst] {
		m.cfg.Send(s.to, s.payload)
	}
	for _, s := range a.rest {
		m.cfg.Send(s.to, s.payload)
	}
	if a.cell != nil {
		m.cells.release(a.cell)
		for _, o := range a.cells {
			m.cells.release(o)
		}
	}
	for _, d := range a.dups {
		m.cfg.DuplicateSubmit(d.sub, d.seq)
	}
}

// --- core paths ---

func (m *Member) isSequencerLocked() bool {
	if m.installing != nil || m.view.Sequencer() != m.cfg.Self {
		return false
	}
	if m.maxSeenEpoch > m.view.Epoch {
		// A higher view exists somewhere (this node was deposed while
		// unreachable, or a proposal it never saw is being installed):
		// ordering now would fork the sequence space. Submits are cached and
		// re-ordered once the newer view reaches us.
		return false
	}
	return m.quorumOKLocked(m.rt.NowLocked())
}

func (m *Member) noteEpochLocked(e uint64) {
	if e > m.maxSeenEpoch {
		m.maxSeenEpoch = e
	}
}

// quorumOKLocked reports whether this member currently hears a strict
// majority of its view (itself included). Members never heard from count as
// alive — the clock starts at the first FD tick. Always true without
// cfg.Quorum.
func (m *Member) quorumOKLocked(now time.Duration) bool {
	if !m.cfg.Quorum || !m.cfg.FailureDetection || len(m.view.Members) <= 1 {
		return true
	}
	alive := 0
	for _, peer := range m.view.Members {
		if seen, heard := m.lastSeen[peer]; peer == m.cfg.Self || !heard || now-seen <= suspectAfter {
			alive++
		}
	}
	return 2*alive > len(m.view.Members)
}

// submitVerdict is what a member does with one copy of a submit. Whatever
// the verdict, a copy of an id not yet ordered is first kept in the submit
// cache, for resubmission after a view change and by the FD tick.
type submitVerdict uint8

const (
	// hold: nothing beyond the cache. The copy is a relay (never relayed
	// again) or a later copy from the origin (a retransmission, which goes to
	// every member anyway); or there is no sequencer to pass it to: a view is
	// being installed, or this member is the sequencer, suspended, and must
	// not forward to itself — it orders its backlog when it resumes or a new
	// view arrives.
	hold submitVerdict = iota
	// settled: a copy of an ordered id not from the origin it was ordered
	// for — a relay, or another sender's copy of an id a whole group submits
	// (a timeout, a nested request or reply). Only that origin's copy says
	// it still waits: neither report nor log re-broadcast.
	settled
	// superseded: a client's copy of a call below its row — the client gave
	// up on it, and a later call of its is ordered. It never will be, and its
	// position (if it had one) is not kept: reported with none, so the owner
	// refuses it, and no log re-broadcast.
	superseded
	// retransmission: the origin an id was ordered for sent it again, so it
	// still waits. The owner hears of it through DuplicateSubmit (the stream
	// carries no second delivery) and the sequencer resends the log from that
	// position: some replica may lack the Ordered — the last of a burst, no
	// later traffic to draw a NACK — and what was ordered after it.
	retransmission
	// orderHere: this member is the sequencer and may order.
	orderHere
	// relayToSequencer: this is where the submit entered the group — this
	// member's own broadcast, or the first copy its origin hands this member:
	// a client sends a request to one member, the sequencer unless its
	// knowledge is stale, so the copy may be the only one, and with failure
	// detection off nothing else would ever pass it on.
	relayToSequencer
)

// submitCase is everything the verdict on a copy of a submit depends on.
type submitCase struct {
	ordered           bool // the id has its position in the order: a named id's is known, a numbered call is at or below its origin's row
	below             bool // ...a numbered call below the row, whose position is not kept
	fromOrigin        bool // sent by the origin itself (a client, a member of another group, this member's Broadcast), not passed on by a member
	fromOrderedOrigin bool // ...the origin the id was ordered for: a numbered id's own, a named id's retained Ordered's, or any once the log has let go of it
	own               bool // this member is the origin
	first             bool // the id is not in the submit cache: this member's first sight of it
	sequencer         bool // this member orders now (isSequencerLocked)
	suspended         bool // it is the installed view's sequencer and may not: quorum lost, or a superseded epoch seen
	installing        bool // a view change is in progress
}

func (c submitCase) verdict() submitVerdict {
	switch {
	case c.ordered && !c.fromOrderedOrigin:
		return settled
	case c.below:
		return superseded
	case c.ordered:
		return retransmission
	case c.sequencer:
		return orderHere
	case !c.fromOrigin, c.installing, c.suspended:
		return hold
	case c.own, c.first:
		return relayToSequencer
	}
	return hold
}

// handleSubmitLocked takes in a copy of a submit that `from` sent.
func (m *Member) handleSubmitLocked(from wire.NodeID, sub Submit, act *actions) {
	k := sub.key()
	e, below := m.entryLocked(k)
	_, cached := m.submitCache[k]
	orders := m.isSequencerLocked()
	c := submitCase{
		ordered:    e.seq != 0 || below,
		below:      below,
		fromOrigin: from == sub.Origin,
		own:        sub.Origin == m.cfg.Self,
		first:      !cached,
		sequencer:  orders,
		suspended:  !orders && m.view.Sequencer() == m.cfg.Self,
		installing: m.installing != nil,
	}
	if c.ordered && c.fromOrigin {
		// A numbered id's Ordered names its own origin; a named id's the one
		// it was ordered for.
		o, held := m.log.get(e.seq)
		c.fromOrderedOrigin = !held || o.Origin == from
	}
	v := c.verdict()
	switch v {
	case settled, superseded, retransmission:
		if v != settled && m.cfg.DuplicateSubmit != nil {
			act.dups = append(act.dups, dupSubmit{sub: sub, seq: e.seq})
		}
		if c.sequencer {
			m.answerLocked(from, k, e.seq, v == retransmission, act)
		}
		return
	}
	if c.first {
		m.cacheSubmitLocked(k, sub)
	}
	switch v {
	case orderHere:
		m.orderLocked(sub, nil, act)
	case relayToSequencer:
		if st := m.cfg.Stats; st != nil && !c.own {
			st.SubmitsRelayed.Inc()
		}
		act.send(m.view.Sequencer(), ptr(sub))
	}
}

// answerLocked is the sequencer's answer to a copy of k, ordered at seq
// (0: a superseded call, whose position is not kept), from `from`: a member
// other than this one is told the position, which settles it there even past
// a snapshot; if the origin still waits (resend), every member is brought
// forward from there, or from the log's floor.
func (m *Member) answerLocked(from wire.NodeID, k key, seq uint64, resend bool, act *actions) {
	if from != m.cfg.Self && m.view.Contains(from) {
		act.send(from, ptr(k.hint(m.cfg.Group, seq)))
	}
	if !resend || seq == 0 {
		return
	}
	for _, peer := range m.view.Members {
		if peer != m.cfg.Self {
			m.repairLocked(peer, max(seq, m.log.lo), act)
		}
	}
}

// orderLocked assigns the next sequence number to sub and broadcasts. Only
// the sequencer calls it.
func (m *Member) orderLocked(sub Submit, view *View, act *actions) {
	k := sub.key()
	if m.orderedLocked(k) {
		return
	}
	o := m.cells.take()
	*o = Ordered{
		Group:   m.cfg.Group,
		Epoch:   m.view.Epoch,
		Seq:     m.nextSeq,
		ID:      sub.ID,
		Origin:  sub.Origin,
		Call:    sub.Call,
		Payload: sub.Payload,
		View:    view,
	}
	if act.cell == nil {
		act.cell = o
	} else {
		act.cells = append(act.cells, o)
	}
	m.nextSeq++
	m.markOrderedLocked(k, o.Seq)
	act.sendAll(m, m.view.Members, o)
	m.handleOrderedLocked(*o, act)
}

// orderedCells is a member's free list of Ordered cells. orderLocked takes
// one per message it orders and the event's finish releases it once the
// sends have returned (Send only borrows a payload). An event can order
// while another event's finish is still sending — a tick beside a reader —
// so one cell per member would not do; finish runs without the runtime
// lock, so the list has a lock of its own.
type orderedCells struct {
	mu   sync.Mutex
	free []*Ordered
}

// maxFreeOrdered bounds the cells a member keeps: a resubmission burst
// orders more at once than the steady state ever holds.
const maxFreeOrdered = 16

func (f *orderedCells) take() *Ordered {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n := len(f.free); n > 0 {
		o := f.free[n-1]
		f.free = f.free[:n-1]
		return o
	}
	return new(Ordered)
}

// release zeroes o, so a kept cell pins no payload, and keeps it.
func (f *orderedCells) release(o *Ordered) {
	*o = Ordered{}
	f.mu.Lock()
	if len(f.free) < maxFreeOrdered {
		f.free = append(f.free, o)
	}
	f.mu.Unlock()
}

func (m *Member) handleOrderedLocked(o Ordered, act *actions) {
	if o.Seq < m.nextDeliver {
		m.settleLocked(o.key(), o.Seq) // a duplicate, or a repair past a snapshot
		return
	}
	if m.nextSeq <= o.Seq {
		m.nextSeq = o.Seq + 1 // keep the shared sequence space monotone
	}
	// A message further above the frontier than the log would retain is a
	// member that fell far behind hearing of the present: it tells of a gap
	// and is not kept (the log spans every number in between). The NACK
	// brings the tail in from the frontier up, or a snapshot in its place.
	gap := true
	if o.Seq-m.nextDeliver < uint64(m.cfg.LogRetain) {
		m.log.put(o)
		m.deliverReadyLocked(act)
		m.trimLocked()
		gap = m.log.hi() > m.nextDeliver
	}
	if gap {
		m.nackLocked(act)
	}
}

// nackLocked asks for the order from the frontier up, once per event, of the
// sequencer of the view being installed (it catches members up) or else of
// the installed view's.
func (m *Member) nackLocked(act *actions) {
	to := m.view.Sequencer()
	if m.installing != nil {
		to = m.installing.Sequencer()
	}
	if !act.nacked && to != m.cfg.Self {
		act.nacked = true
		act.send(to, &Nack{Group: m.cfg.Group, From: m.cfg.Self, Want: m.nextDeliver})
	}
}

// settleLocked records that k took position seq, below the delivery
// frontier (0: a call superseded before it was ordered): its submit, if this
// member still holds one, is not resent.
func (m *Member) settleLocked(k key, seq uint64) {
	m.markOrderedLocked(k, seq)
	delete(m.submitCache, k)
}

// deliverReadyLocked delivers what the log holds at the frontier, up to the
// first gap.
func (m *Member) deliverReadyLocked(act *actions) {
	for {
		next, ok := m.log.get(m.nextDeliver)
		if !ok {
			return
		}
		m.nextDeliver++
		m.deliverLocked(next, act)
	}
}

func (m *Member) deliverLocked(o Ordered, act *actions) {
	k := o.key()
	e, _ := m.entryLocked(k)
	cached, seen := m.submitCache[k]
	if st := m.cfg.Stats; st != nil {
		st.Delivered.Inc()
		if seen { // submit to delivery, for every submit this member held
			st.DeliverLatency.Observe((m.rt.NowLocked() - cached.seen).Seconds())
		}
	}
	if m.cfg.Spans != nil && o.Payload != nil {
		// Ordering span: from this member first seeing the submit (cached
		// on its way to the sequencer) to total-order delivery here. A
		// member that never saw the submit — a follower the client sent no
		// copy to — starts the span at the Ordered's arrival, so its span is
		// empty and the time the request spent reaching and leaving the
		// sequencer shows on the sequencer's span alone.
		if t, ok := o.Payload.(tracing.Traced); ok {
			if ctx := t.TraceCtx(); ctx.Valid() {
				now := m.rt.NowLocked()
				start := now
				if seen {
					start = cached.seen
				}
				m.cfg.Spans.Record(tracing.Span{
					Trace:  ctx.TraceID,
					ID:     tracing.NewSpanID(ctx.TraceID, "order", string(m.cfg.Self), start),
					Parent: ctx.Span,
					Name:   "order",
					Node:   string(m.cfg.Self),
					Shard:  m.cfg.Shard,
					Seq:    o.Seq,
					Start:  start,
					Dur:    now - start,
				})
			}
		}
	}
	if k != (key{}) {
		e.seq = o.Seq
		m.putEntryLocked(k, e)
		delete(m.submitCache, k)
	}
	if o.View == nil && o.Payload == nil {
		return // gap filler ordered by a recovering sequencer
	}
	d := Delivery{Seq: o.Seq, ID: o.ID, Call: o.Call, Origin: o.Origin, Payload: o.Payload}
	if o.View != nil {
		v := o.View.clone()
		d.NewView = &v
	}
	// Enqueue before installing: if this member is the new sequencer,
	// installViewLocked re-orders its cached submits, which delivers them
	// recursively — the view event must precede them in the stream.
	m.deliveries.PutLocked(d)
	if d.NewView != nil {
		m.installViewLocked(*d.NewView, act)
	}
}

func (m *Member) installViewLocked(v View, act *actions) {
	if v.Epoch <= m.view.Epoch {
		return // stale re-announcement from a tail rebroadcast
	}
	if st := m.cfg.Stats; st != nil {
		st.ViewChanges.Inc()
	}
	m.view = v.clone()
	if m.installing != nil && m.installing.Epoch <= v.Epoch {
		m.installing = nil
	}
	m.syncResps = nil
	if t := m.syncTimer; t != nil {
		m.syncTimer = nil
		m.rt.StopTimerLocked(t)
	}
	// The view may have shrunk: the stability watermark no longer waits on
	// departed members, so retained entries may become truncatable.
	m.trimLocked()
	// Nothing that only the crashed sequencer saw may be lost.
	m.resubmitLocked(0, act)
}

// --- repair ---

const repairBurst = 256 // a peer further behind asks again

// repairLocked brings peer `to` forward from position from: a NACK's want,
// a retransmitted id's position, a member's frontier in the sync round.
// Pre: to lacks from. Post: to has been sent the checkpoint if from lies
// below the log and the checkpoint covers it; then at most repairBurst
// messages the log holds, from the next position up (from the log's floor
// if the checkpoint falls short).
func (m *Member) repairLocked(to wire.NodeID, from uint64, act *actions) {
	if from < m.log.lo && from <= m.snapSeq {
		act.send(to, &Snapshot{Group: m.cfg.Group, Seq: m.snapSeq, Data: m.snapData})
		if st := m.cfg.Stats; st != nil {
			st.SnapshotsSent.Inc()
		}
		from = m.snapSeq + 1
	}
	sent := 0
	for seq := max(from, m.log.lo); seq < m.log.hi() && sent < repairBurst; seq++ {
		if o, ok := m.log.get(seq); ok {
			act.send(to, ptr(o))
			sent++
		}
	}
}

// resubmitLocked passes on every cached submit that went toward the
// sequencer at least age ago: the sequencer orders it, any other member
// sends it there (answered with its position if ordered meanwhile). Nothing
// moves while a view is installed; a suspended sequencer holds its backlog.
func (m *Member) resubmitLocked(age time.Duration, act *actions) {
	if m.installing != nil {
		return
	}
	now := m.rt.NowLocked()
	for k := range m.cacheOrder.All() {
		c, ok := m.submitCache[k]
		if !ok || m.orderedLocked(k) || now-c.at < age {
			continue
		}
		c.at = now // one resend per age
		m.submitCache[k] = c
		if m.isSequencerLocked() {
			m.orderLocked(c.sub, nil, act)
		} else if m.view.Sequencer() != m.cfg.Self {
			act.send(m.view.Sequencer(), ptr(c.sub))
		}
	}
}

// handleSnapshotLocked installs a checkpoint received in place of a
// truncated tail: it stands in for every ordered message up to and
// including p.Seq, so pending messages at or below it are dropped and
// delivery resumes at p.Seq+1. A snapshot behind the delivery frontier is
// stale and ignored — everything it covers was already delivered here.
// What it settled stays cached until a resend draws the position.
func (m *Member) handleSnapshotLocked(p Snapshot, act *actions) {
	if p.Seq < m.nextDeliver || len(p.Data) == 0 {
		return
	}
	if st := m.cfg.Stats; st != nil {
		st.SnapshotsInstalled.Inc()
	}
	if m.nextSeq <= p.Seq {
		m.nextSeq = p.Seq + 1
	}
	m.deliveries.PutLocked(Delivery{Seq: p.Seq, Snapshot: p.Data})
	m.nextDeliver = p.Seq + 1
	// Adopt the checkpoint as our own so we can serve it onward and
	// truncate the (now irrelevant) retained prefix.
	if p.Seq > m.snapSeq {
		m.snapSeq, m.snapData = p.Seq, p.Data
	}
	m.deliverReadyLocked(act)
	m.trimLocked()
}

// --- message ids ---
//
// A named id is remembered in a window: the last maxTrackedIDs names seen
// ordered or broadcast, first in, first out. A client's calls take positions
// in call order (see Message ids in gcs.go), so one row per origin — its
// highest call seen ordered — answers for every call of that origin: above
// the row a call is fresh, the row's own has the row's position, below it a
// call is superseded. Past maxTrackedIDs origins the row ordered longest ago
// goes. A forgotten id is no duplicate any more: it is ordered again, and
// the layer above refuses it.

const maxTrackedIDs = 1 << 14

// key is a message id as the tables compare it: a named id by its name,
// whoever sent the copy; a numbered one by origin and call.
type key struct {
	id     string
	origin wire.NodeID
	call   uint64
}

func idKey(id string, origin wire.NodeID, call uint64) key {
	if call == 0 {
		return key{id: id}
	}
	return key{origin: origin, call: call}
}

func (s Submit) key() key  { return idKey(s.ID, s.Origin, s.Call) }
func (o Ordered) key() key { return idKey(o.ID, o.Origin, o.Call) }
func (h Hint) key() key    { return idKey(h.ID, h.Origin, h.Call) }

// hint names position seq for k.
func (k key) hint(g wire.GroupID, seq uint64) Hint {
	return Hint{Group: g, ID: k.id, Origin: k.origin, Call: k.call, Seq: seq}
}

// idEntry is what a member knows of one id: the position it was ordered at.
type idEntry struct {
	seq uint64
}

// originRow is the highest call of one origin this member saw ordered.
type originRow struct {
	call, seq uint64
}

// cachedSubmit is a submit not known to be ordered, when this member first
// saw it, and when it last went toward the sequencer.
type cachedSubmit struct {
	sub      Submit
	seen, at time.Duration
}

// entryLocked is what this member knows of k: a named id's entry, or what
// its origin's row says of a call — the row's entry for its own call,
// nothing above it, below it that the call is superseded.
func (m *Member) entryLocked(k key) (e idEntry, below bool) {
	if k.call == 0 {
		return m.ids[k.id], false
	}
	row, ok := m.origins[k.origin]
	switch {
	case !ok || k.call > row.call:
		return idEntry{}, false
	case k.call == row.call:
		return idEntry{seq: row.seq}, false
	}
	return idEntry{}, true
}

// putEntryLocked stores e for k: a named id's entry, a new name joining the
// window; or the row of a numbered id's origin, moved up to its call (never
// down), a new origin's row evicting the one ordered longest ago. Every
// addition and eviction ends in the id-rows gauges.
func (m *Member) putEntryLocked(k key, e idEntry) {
	if k.call == 0 {
		_, known := m.ids[k.id]
		m.ids[k.id] = e
		if known {
			return
		}
		m.idOrder.Push(k.id)
		if m.idOrder.Len() > maxTrackedIDs {
			old, _ := m.idOrder.Pop()
			delete(m.ids, old)
		}
	} else {
		row, known := m.origins[k.origin]
		if k.call < row.call {
			return
		}
		if !known && len(m.origins) >= maxTrackedIDs {
			var oldest wire.NodeID
			low := ^uint64(0)
			for o, r := range m.origins {
				if r.seq < low {
					oldest, low = o, r.seq
				}
			}
			delete(m.origins, oldest)
		}
		m.origins[k.origin] = originRow{k.call, e.seq}
		if known {
			return
		}
	}
	if st := m.cfg.Stats; st != nil {
		st.OriginRows.Set(int64(len(m.origins)))
		st.NamedIDs.Set(int64(len(m.ids)))
	}
}

// orderedLocked reports whether k is known to be ordered or superseded
// (never the empty id: it is not tracked).
func (m *Member) orderedLocked(k key) bool {
	e, below := m.entryLocked(k)
	return e.seq != 0 || below
}

// markOrderedLocked records that k took position seq, unless this member
// knew it already or seq is 0 (a superseded call: nothing to record).
func (m *Member) markOrderedLocked(k key, seq uint64) {
	if e, below := m.entryLocked(k); seq != 0 && e.seq == 0 && !below && k != (key{}) {
		e.seq = seq
		m.putEntryLocked(k, e)
	}
}

// cacheSubmitLocked remembers a not-yet-ordered submit, which k names, that
// this member sees for the first time.
func (m *Member) cacheSubmitLocked(k key, sub Submit) {
	now := m.rt.NowLocked()
	m.submitCache[k] = cachedSubmit{sub: sub, seen: now, at: now}
	m.cacheOrder.Push(k)
	// Submits are ordered about as they came, so what the head of the queue
	// names has mostly left the cache since — or been superseded, for a
	// client's abandoned call: dropped here, the queue stays about as short
	// as the cache instead of filling up with ordered ids.
	for {
		head := *m.cacheOrder.At(0)
		if _, live := m.submitCache[head]; live && !m.orderedLocked(head) && m.cacheOrder.Len() <= maxTrackedIDs {
			return
		}
		m.cacheOrder.Pop()
		delete(m.submitCache, head)
	}
}

// floorLocked is the highest sequence number the log lets go of:
//
//	max(stable, delivered − LogRetain)
//
// stable is what no member can ask for again. With failure detection that is
// min(checkpoint, watermark), the watermark being the lowest delivery
// frontier across the current view (self included; peers report theirs via
// heartbeat Acked, a peer never heard from holds it at 0) — so no entry a live
// view member might still NACK is dropped. Without failure detection there
// are no acks and the checkpoint alone decides: NACKs below the floor are
// answered with the snapshot instead of the dropped entries. Above stable
// the log keeps cfg.LogRetain delivered messages, and everything not yet
// delivered.
func (m *Member) floorLocked() uint64 {
	floor := m.snapSeq
	if m.cfg.FailureDetection && floor != 0 {
		floor = min(floor, m.watermarkLocked())
	}
	if retain := uint64(m.cfg.LogRetain); m.nextDeliver-1 > retain {
		floor = max(floor, m.nextDeliver-1-retain)
	}
	return floor
}

// trimLocked cuts the log back to floorLocked. It runs after whatever can
// move the floor: a put (the frontier), a checkpoint, a peer's ack, a view
// change.
func (m *Member) trimLocked() {
	removed := m.log.dropBelow(m.floorLocked() + 1)
	if st := m.cfg.Stats; st != nil {
		st.Truncated.Add(uint64(removed))
		st.LogLength.Set(int64(m.log.n))
	}
}

// watermarkLocked returns the lowest delivery frontier across the current
// view: every member has delivered (and acked) everything at or below it.
func (m *Member) watermarkLocked() uint64 {
	w := m.nextDeliver - 1
	for _, peer := range m.view.Members {
		if peer == m.cfg.Self {
			continue
		}
		if a := m.peerAcked[peer]; a < w {
			w = a
		}
	}
	return w
}
