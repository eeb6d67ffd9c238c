package gcs

import (
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

	// Sequencer state. ids is what this member knows of message ids (see
	// idEntry), pruned first in, first out through idOrder.
	nextSeq uint64
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
	// holdSeq, when non-zero, pins the truncation floor below it: entries
	// at or above holdSeq survive checkpoints, the stability watermark and
	// the retention count. The replica holds its shard-migration prepare
	// position so the prepare→fence tail (including handoff chunks) stays
	// replayable for rejoiners until the fence releases the hold.
	holdSeq uint64

	// Submits seen but possibly not yet ordered, in arrival order in
	// cacheOrder; resubmitted on view change and re-sent by the FD tick once
	// stale.
	submitCache map[string]cachedSubmit
	cacheOrder  ring.Queue[string]

	// maxSeenEpoch is the highest view epoch observed in any protocol
	// message. A sequencer whose installed epoch is below it has been
	// superseded (e.g. it was partitioned away and deposed) and must not
	// order messages until it catches up to the newer view.
	maxSeenEpoch uint64

	// Failure detection.
	lastSeen  map[wire.NodeID]time.Duration
	fdTimer   *vtime.Timer
	syncTimer *vtime.Timer
	syncResps map[wire.NodeID]SyncResp
	stopped   bool
}

// NewMember creates a member. Call Start before use and Stop when done.
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
		ids:         make(map[string]idEntry),
		submitCache: make(map[string]cachedSubmit),
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
			// Remember when, so the delivery latency can be observed.
			if e, known := m.ids[id]; !e.sent && id != "" {
				e.sent, e.sentAt = true, m.rt.NowLocked()
				m.setIDLocked(id, e, !known)
			}
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

// HoldTruncation pins the truncation floor strictly below seq: ordered
// messages at or above seq are retained regardless of later checkpoints,
// the stability watermark, or the retention count. Holds do not stack — a
// second call only lowers the pin — and Release resumes normal
// truncation. The shard-migration protocol holds its prepare position so
// a replica that rejoins mid-handoff recovers by snapshot (necessarily
// pre-prepare, checkpoints being suppressed during migration) plus a tail
// that still contains the prepare, the source cut and every chunk.
func (m *Member) HoldTruncation(seq uint64) {
	if m.enter() && seq > 0 && (m.holdSeq == 0 || seq < m.holdSeq) {
		m.holdSeq = seq
		if st := m.cfg.Stats; st != nil {
			st.TruncationHold.Set(int64(seq))
		}
	}
	m.rt.Unlock()
}

// ReleaseTruncation lifts the HoldTruncation pin and immediately trims the
// log to the floor the pin kept it from.
func (m *Member) ReleaseTruncation() {
	if m.enter() && m.holdSeq != 0 {
		m.holdSeq = 0
		if st := m.cfg.Stats; st != nil {
			st.TruncationHold.Set(0)
		}
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
// otherwise.
func (m *Member) Handle(from wire.NodeID, payload any) bool {
	if p, isGCS := payload.(interface{ group() wire.GroupID }); !isGCS || p.group() != m.cfg.Group {
		return false
	}
	var act actions
	if m.enter() {
		m.lastSeen[from] = m.rt.NowLocked() // any message is a sign of life
		switch p := payload.(type) {
		case Submit:
			m.handleSubmitLocked(from, p, &act)
		case Ordered:
			m.noteEpochLocked(p.Epoch)
			m.handleOrderedLocked(p, &act)
		case Nack:
			if st := m.cfg.Stats; st != nil {
				st.Nacks.Inc()
			}
			m.repairLocked(p.From, p.Want, &act)
		case Heartbeat:
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
		case Snapshot:
			m.handleSnapshotLocked(p, &act)
		case Hint:
			if p.Seq < m.nextDeliver {
				m.settleLocked(p.ID, p.Seq) // an answer to a copy of an ordered id
			} else if m.cfg.HintDeliver != nil {
				act.hints = append(act.hints, p)
			}
		case Propose:
			m.noteEpochLocked(p.View.Epoch)
			m.adoptProposalLocked(p.View, &act)
		case SyncReq:
			m.noteEpochLocked(p.View.Epoch)
			m.adoptProposalLocked(p.View, &act)
			if p.View.Epoch > m.view.Epoch { // not installed yet: the requester waits for this tail
				act.send(p.From, m.tailLocked(p.View.Epoch))
			}
		case SyncResp:
			m.handleSyncRespLocked(p, &act)
		}
	}
	m.leave(&act)
	return true
}

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
	// opts are fresh submits to surface through the OptimisticDeliver hook.
	opts []Submit
	// hints are sequencer spontaneous-order predictions to surface through
	// the HintDeliver hook.
	hints []Hint
	// nacked dedups gap NACKs within one event (see handleOrderedLocked).
	nacked bool
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
// how many that is. The payload is boxed by the caller, once, not once per
// peer.
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
// duplicate-submit / optimistic-delivery / hint notifications (each queued
// only where its hook is set), which may call back into the replica layer.
func (a *actions) finish(m *Member) {
	for _, s := range a.first[:a.nfirst] {
		m.cfg.Send(s.to, s.payload)
	}
	for _, s := range a.rest {
		m.cfg.Send(s.to, s.payload)
	}
	for _, d := range a.dups {
		m.cfg.DuplicateSubmit(d.sub, d.seq)
	}
	for _, s := range a.opts {
		m.cfg.OptimisticDeliver(s)
	}
	for _, h := range a.hints {
		m.cfg.HintDeliver(h)
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
		if seen, heard := m.lastSeen[peer]; peer == m.cfg.Self || !heard || now-seen <= m.cfg.SuspectAfter {
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
	// every member anyway — as does the first copy in a direct-copy group);
	// or there is no sequencer to pass it to: a view is being installed, or
	// this member is the sequencer, suspended, and must not forward to itself
	// — it orders its backlog when it resumes or a new view arrives.
	hold submitVerdict = iota
	// settled: a copy of an ordered id not from the origin it was ordered
	// for — a relay, or another sender's copy of an id a whole group submits
	// (a timeout, a nested request or reply, a migration chunk). Only that
	// origin's copy says it still waits: neither report nor log re-broadcast.
	settled
	// overtakenFirstCopy: in a direct-copy group this member's copy from the
	// origin lost the race against the sequencer's Ordered. The execution
	// replies on its own, so only the report is withheld (a replay would be a
	// second reply); the mark is spent, the log resent as for a
	// retransmission. When the copy and the reply were both lost, the replay
	// waits for the client's second retransmission.
	overtakenFirstCopy
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
	ordered           bool // the id has its position in the order
	overtaken         bool // ...which got here before the origin's direct copy (see deliverLocked)
	fromOrigin        bool // sent by the origin itself (a client, a member of another group, this member's Broadcast), not passed on by a member
	fromOrderedOrigin bool // ...the origin the id was ordered for: the retained Ordered's Origin, or any origin once the log has let go of it
	own               bool // this member is the origin
	first             bool // the id is not in the submit cache: this member's first sight of it
	sequencer         bool // this member orders now (isSequencerLocked)
	suspended         bool // it is the installed view's sequencer and may not: quorum lost, or a superseded epoch seen
	installing        bool // a view change is in progress
	directCopies      bool // a direct-copy group (cfg.OptimisticDeliver set)
}

func (c submitCase) verdict() submitVerdict {
	switch {
	case c.ordered && !c.fromOrderedOrigin:
		return settled
	case c.ordered && c.overtaken:
		return overtakenFirstCopy
	case c.ordered:
		return retransmission
	case c.sequencer:
		return orderHere
	case !c.fromOrigin, c.installing, c.suspended:
		return hold
	case c.own, c.first && !c.directCopies:
		return relayToSequencer
	}
	return hold
}

// handleSubmitLocked takes in a copy of a submit that `from` sent.
func (m *Member) handleSubmitLocked(from wire.NodeID, sub Submit, act *actions) {
	e := m.ids[sub.ID]
	_, cached := m.submitCache[sub.ID]
	orders := m.isSequencerLocked()
	c := submitCase{
		ordered:      e.seq != 0,
		overtaken:    e.overtaken,
		fromOrigin:   from == sub.Origin,
		own:          sub.Origin == m.cfg.Self,
		first:        !cached,
		sequencer:    orders,
		suspended:    !orders && m.view.Sequencer() == m.cfg.Self,
		installing:   m.installing != nil,
		directCopies: m.cfg.OptimisticDeliver != nil,
	}
	if c.ordered && c.fromOrigin {
		o, held := m.log.get(e.seq)
		c.fromOrderedOrigin = !held || o.Origin == from
	}
	v := c.verdict()
	switch v {
	case settled, overtakenFirstCopy, retransmission:
		if v == overtakenFirstCopy {
			e.overtaken = false
			m.ids[sub.ID] = e
		} else if v == retransmission && m.cfg.DuplicateSubmit != nil {
			act.dups = append(act.dups, dupSubmit{sub: sub, seq: e.seq})
		}
		if c.sequencer {
			m.answerLocked(from, sub.ID, e.seq, v != settled, act)
		}
		return
	}
	if c.first {
		m.cacheSubmitLocked(sub)
		if m.cfg.OptimisticDeliver != nil {
			// Surface it on the optimistic-delivery stream, once per id.
			act.opts = append(act.opts, sub)
		}
	}
	switch v {
	case orderHere:
		m.sequenceLocked(sub, act)
	case relayToSequencer:
		if st := m.cfg.Stats; st != nil && !c.own {
			st.SubmitsRelayed.Inc()
		}
		act.send(m.view.Sequencer(), sub)
	}
}

// answerLocked is the sequencer's answer to a copy of an id ordered at seq
// from `from`: a member other than this one is told the position, which
// settles it there even past a snapshot; if the origin still waits (resend),
// every member is brought forward from there, or from the log's floor.
func (m *Member) answerLocked(from wire.NodeID, id string, seq uint64, resend bool, act *actions) {
	if from != m.cfg.Self && m.view.Contains(from) {
		act.send(from, Hint{Group: m.cfg.Group, ID: id, Seq: seq})
	}
	if !resend {
		return
	}
	for _, peer := range m.view.Members {
		if peer != m.cfg.Self {
			m.repairLocked(peer, max(seq, m.log.lo), act)
		}
	}
}

// sequenceLocked orders a submit the sequencer has not ordered yet. The
// position is announced before the ordering round — exact in steady state,
// harmlessly wrong across view changes.
func (m *Member) sequenceLocked(sub Submit, act *actions) {
	m.hintLocked(sub.ID, m.nextSeq, act)
	m.orderLocked(sub.ID, sub.Origin, sub.Payload, nil, act)
}

// hintLocked queues a spontaneous-order hint for every view member, this
// one's own HintDeliver included. No-op unless HintDeliver is set.
func (m *Member) hintLocked(id string, seq uint64, act *actions) {
	if m.cfg.HintDeliver == nil || id == "" {
		return
	}
	h := Hint{Group: m.cfg.Group, ID: id, Seq: seq}
	act.sendAll(m, m.view.Members, h)
	act.hints = append(act.hints, h)
}

// orderLocked assigns the next sequence number and broadcasts. Only the
// sequencer calls it.
func (m *Member) orderLocked(id string, origin wire.NodeID, payload any, view *View, act *actions) {
	if m.orderedLocked(id) {
		return
	}
	o := Ordered{
		Group:   m.cfg.Group,
		Epoch:   m.view.Epoch,
		Seq:     m.nextSeq,
		ID:      id,
		Origin:  origin,
		Payload: payload,
		View:    view,
	}
	m.nextSeq++
	m.markOrderedIDLocked(id, o.Seq)
	act.sendAll(m, m.view.Members, o)
	m.handleOrderedLocked(o, act)
}

func (m *Member) handleOrderedLocked(o Ordered, act *actions) {
	if o.Seq < m.nextDeliver {
		m.settleLocked(o.ID, o.Seq) // a duplicate, or a repair past a snapshot
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
		act.send(to, Nack{Group: m.cfg.Group, From: m.cfg.Self, Want: m.nextDeliver})
	}
}

// settleLocked records that id took position seq, below the delivery
// frontier: its submit, if this member still holds one, is not resent.
func (m *Member) settleLocked(id string, seq uint64) {
	m.markOrderedIDLocked(id, seq)
	delete(m.submitCache, id)
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
	e, known := m.ids[o.ID]
	cached, direct := m.submitCache[o.ID]
	if st := m.cfg.Stats; st != nil {
		st.Delivered.Inc()
		if e.sent && o.Origin == m.cfg.Self {
			e.sent = false
			st.DeliverLatency.Observe((m.rt.NowLocked() - e.sentAt).Seconds())
		}
	}
	if m.cfg.Spans != nil && o.Payload != nil {
		// Ordering span: from this member first seeing the submit (cached
		// on its way to the sequencer) to total-order delivery here. A
		// member that never saw the submit — every follower of a group
		// without direct copies — starts the span at the Ordered's arrival,
		// so its span is empty and the time the request spent reaching and
		// leaving the sequencer shows on the sequencer's span alone.
		if t, ok := o.Payload.(tracing.Traced); ok {
			if ctx := t.TraceCtx(); ctx.Valid() {
				now := m.rt.NowLocked()
				start := now
				if direct {
					start = cached.at
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
	if o.ID != "" {
		if m.cfg.OptimisticDeliver != nil && !direct && !m.view.Contains(o.Origin) {
			// The Ordered copy got here before the submitter's own, which in
			// a direct-copy group is on its way. A member's own broadcast
			// goes to the sequencer alone, and so does a client's request
			// in any other group: there the first direct copy of an ordered
			// id is a retransmission, and a mark would only make its
			// replay wait for the second.
			e.overtaken = true
		}
		e.seq = o.Seq
		m.setIDLocked(o.ID, e, !known)
		delete(m.submitCache, o.ID)
	}
	if o.View == nil && o.Payload == nil {
		return // gap filler ordered by a recovering sequencer
	}
	d := Delivery{Seq: o.Seq, ID: o.ID, Origin: o.Origin, Payload: o.Payload}
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
		act.send(to, Snapshot{Group: m.cfg.Group, Seq: m.snapSeq, Data: m.snapData})
		if st := m.cfg.Stats; st != nil {
			st.SnapshotsSent.Inc()
		}
		from = m.snapSeq + 1
	}
	sent := 0
	for seq := max(from, m.log.lo); seq < m.log.hi() && sent < repairBurst; seq++ {
		if o, ok := m.log.get(seq); ok {
			act.send(to, o)
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
	for id := range m.cacheOrder.All() {
		c, ok := m.submitCache[id]
		if !ok || m.orderedLocked(id) || now-c.at < age {
			continue
		}
		c.at = now // one resend per age
		m.submitCache[id] = c
		if m.isSequencerLocked() {
			m.sequenceLocked(c.sub, act)
		} else if m.view.Sequencer() != m.cfg.Self {
			act.send(m.view.Sequencer(), c.sub)
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

// --- bookkeeping ---

const maxTrackedIDs = 1 << 14

// idEntry is what a member knows of one message id. seq is the position the
// id was ordered at, 0 while this member has only broadcast it; sentAt is
// when it did (own ids, with cfg.Stats), until the delivery has been timed.
// overtaken marks an id this member delivered before it saw the origin's
// direct copy (only in direct-copy groups, see handleSubmitLocked).
type idEntry struct {
	seq       uint64
	sentAt    time.Duration
	sent      bool
	overtaken bool
}

// cachedSubmit is a submit not known to be ordered and when it last went
// toward the sequencer.
type cachedSubmit struct {
	sub Submit
	at  time.Duration
}

// orderedLocked reports whether id is known to be ordered (never the empty
// id: it is not tracked).
func (m *Member) orderedLocked(id string) bool { return m.ids[id].seq != 0 }

// setIDLocked stores id's entry; a fresh id joins the pruning order, and
// the oldest leaves the table once it tracks more than maxTrackedIDs.
func (m *Member) setIDLocked(id string, e idEntry, fresh bool) {
	m.ids[id] = e
	if !fresh {
		return
	}
	m.idOrder.Push(id)
	if m.idOrder.Len() > maxTrackedIDs {
		old, _ := m.idOrder.Pop()
		delete(m.ids, old)
	}
}

func (m *Member) markOrderedIDLocked(id string, seq uint64) {
	if e, known := m.ids[id]; id != "" && e.seq == 0 {
		e.seq = seq
		m.setIDLocked(id, e, !known)
	}
}

// cacheSubmitLocked remembers a not-yet-ordered submit this member sees for
// the first time.
func (m *Member) cacheSubmitLocked(sub Submit) {
	m.submitCache[sub.ID] = cachedSubmit{sub: sub, at: m.rt.NowLocked()}
	m.cacheOrder.Push(sub.ID)
	// Submits are ordered about as they came, so what the head of the queue
	// names has mostly left the cache since: dropped here, the queue stays
	// about as short as the cache instead of filling up with ordered ids.
	for {
		head := *m.cacheOrder.At(0)
		if _, live := m.submitCache[head]; live && m.cacheOrder.Len() <= maxTrackedIDs {
			return
		}
		m.cacheOrder.Pop()
		delete(m.submitCache, head)
	}
}

// floorLocked is the highest sequence number the log lets go of:
//
//	min(hold − 1, max(stable, delivered − LogRetain))
//
// stable is what no member can ask for again. With failure detection that is
// min(checkpoint, watermark), the watermark being the lowest delivery
// frontier across the current view (self included; peers report theirs via
// heartbeat Acked, a peer never heard from holds it at 0) — so no entry a live
// view member might still NACK is dropped. Without failure detection there
// are no acks and the checkpoint alone decides: NACKs below the floor are
// answered with the snapshot instead of the dropped entries. Above stable
// the log keeps cfg.LogRetain delivered messages, and everything not yet
// delivered. A HoldTruncation pin wins over both.
func (m *Member) floorLocked() uint64 {
	floor := m.snapSeq
	if m.cfg.FailureDetection && floor != 0 {
		floor = min(floor, m.watermarkLocked())
	}
	if retain := uint64(m.cfg.LogRetain); m.nextDeliver-1 > retain {
		floor = max(floor, m.nextDeliver-1-retain)
	}
	if m.holdSeq != 0 && floor >= m.holdSeq {
		floor = m.holdSeq - 1
		if st := m.cfg.Stats; st != nil {
			st.TruncationHeld.Inc()
		}
	}
	return floor
}

// trimLocked cuts the log back to floorLocked. It runs after whatever can
// move the floor: a put (the frontier), a checkpoint, a peer's ack, a view
// change, the release of a hold.
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
