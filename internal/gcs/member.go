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

	// Sequencer-side submit batching (Config.MaxBatch/MaxBatchDelay):
	// submits accepted but not yet broadcast. Flushed at the end of the
	// event that opened the batch, when it fills, or when batchTimer fires.
	batch      []Submit
	batchAt    []time.Duration // batch[i]'s arrival time (only with cfg.Spans)
	batchTimer *vtime.Timer

	// Delivery state: everything below nextDeliver has been delivered. The
	// log retains ordered messages for NACK retransmission and view sync,
	// and holds those that arrived ahead of the frontier until it reaches
	// them.
	nextDeliver uint64
	log         window

	// Checkpoint / truncation state. peerAcked records each peer's delivery
	// frontier (piggybacked on heartbeats); the minimum over the current
	// view is the stability watermark. Entries at or below logFloor have
	// been truncated from the log and can only be recovered via snapshot.
	peerAcked map[wire.NodeID]uint64
	logFloor  uint64
	snapSeq   uint64 // latest checkpoint position (0 = none)
	snapData  []byte // latest checkpoint state image
	// holdSeq, when non-zero, pins the truncation floor below it: entries
	// at or above holdSeq survive checkpoints, the stability watermark and
	// the retention cap. The replica holds its shard-migration prepare
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
	fd, sy, bt := m.fdTimer, m.syncTimer, m.batchTimer
	m.fdTimer, m.syncTimer, m.batchTimer = nil, nil, nil
	m.rt.Unlock()
	m.rt.StopTimer(fd)
	m.rt.StopTimer(sy)
	m.rt.StopTimer(bt)
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
	m.rt.Lock()
	if !m.stopped {
		if st := m.cfg.Stats; st != nil {
			st.Broadcasts.Inc()
			// Remember when, so the delivery latency can be observed.
			if e, known := m.ids[id]; !e.sent && id != "" {
				e.sent, e.sentAt = true, m.rt.NowLocked()
				m.setIDLocked(id, e, !known)
			}
		}
		m.handleSubmitLocked(m.cfg.Self, sub, &act)
		m.maybeFlushBatchLocked(&act)
	}
	m.rt.Unlock()
	act.finish(m)
}

// SetCheckpoint records a checkpoint taken by the layer above: data stands
// in for every ordered message up to and including seq. The member keeps
// only the latest checkpoint, answers NACKs for truncated positions with
// it, and truncates the retransmission log up to the checkpoint (bounded
// additionally by the stability watermark when failure detection is on).
func (m *Member) SetCheckpoint(seq uint64, data []byte) {
	m.rt.Lock()
	if !m.stopped && seq > m.snapSeq && len(data) > 0 {
		m.snapSeq = seq
		m.snapData = data
		m.truncateLocked()
	}
	m.rt.Unlock()
}

// HoldTruncation pins the truncation floor strictly below seq: ordered
// messages at or above seq are retained regardless of later checkpoints,
// the stability watermark, or the retention cap. Holds do not stack — a
// second call only lowers the pin — and Release resumes normal
// truncation. The shard-migration protocol holds its prepare position so
// a replica that rejoins mid-handoff recovers by snapshot (necessarily
// pre-prepare, checkpoints being suppressed during migration) plus a tail
// that still contains the prepare, the source cut and every chunk.
func (m *Member) HoldTruncation(seq uint64) {
	m.rt.Lock()
	if !m.stopped && seq > 0 && (m.holdSeq == 0 || seq < m.holdSeq) {
		m.holdSeq = seq
		if st := m.cfg.Stats; st != nil {
			st.TruncationHold.Set(int64(seq))
		}
	}
	m.rt.Unlock()
}

// ReleaseTruncation lifts the HoldTruncation pin and immediately
// re-truncates up to the normal stability floor.
func (m *Member) ReleaseTruncation() {
	m.rt.Lock()
	if !m.stopped && m.holdSeq != 0 {
		m.holdSeq = 0
		if st := m.cfg.Stats; st != nil {
			st.TruncationHold.Set(0)
		}
		m.truncateLocked()
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
	group, isGCS := payloadGroup(payload)
	if !isGCS || group != m.cfg.Group {
		return false
	}
	now := m.rt.Now()
	var act actions
	m.rt.Lock()
	if m.stopped {
		m.rt.Unlock()
		return true
	}
	m.touchLocked(from, now)
	switch p := payload.(type) {
	case Submit:
		m.handleSubmitLocked(from, p, &act)
	case Ordered:
		m.noteEpochLocked(p.Epoch)
		m.handleOrderedLocked(p, &act)
	case Nack:
		m.handleNackLocked(p, &act)
	case Heartbeat:
		// touch already recorded liveness
		m.noteEpochLocked(p.Epoch)
		if p.Acked > m.peerAcked[p.From] {
			m.peerAcked[p.From] = p.Acked
			m.truncateLocked() // the stability watermark may have advanced
		}
		// Frontier check: a peer knows an ordered seq we never delivered and
		// no later traffic will open the gap for us — ask the sequencer.
		if m.installing == nil && p.Epoch == m.view.Epoch &&
			p.MaxSeq >= m.nextDeliver && m.view.Sequencer() != m.cfg.Self {
			act.send(m.view.Sequencer(), Nack{Group: m.cfg.Group, From: m.cfg.Self, Want: m.nextDeliver})
		}
	case Snapshot:
		m.handleSnapshotLocked(p, &act)
	case Hint:
		if m.cfg.HintDeliver != nil {
			act.hints = append(act.hints, p)
		}
	case Propose:
		m.noteEpochLocked(p.View.Epoch)
		m.adoptProposalLocked(p.View, &act)
	case SyncReq:
		m.noteEpochLocked(p.View.Epoch)
		m.handleSyncReqLocked(p, &act)
	case SyncResp:
		m.handleSyncRespLocked(p, &act)
	}
	m.maybeFlushBatchLocked(&act)
	m.rt.Unlock()
	act.finish(m)
	return true
}

func payloadGroup(payload any) (wire.GroupID, bool) {
	switch p := payload.(type) {
	case Submit:
		return p.Group, true
	case Ordered:
		return p.Group, true
	case Nack:
		return p.Group, true
	case Heartbeat:
		return p.Group, true
	case Propose:
		return p.Group, true
	case SyncReq:
		return p.Group, true
	case SyncResp:
		return p.Group, true
	case Snapshot:
		return p.Group, true
	case Hint:
		return p.Group, true
	}
	return "", false
}

// --- actions ---

type outMsg struct {
	to      wire.NodeID
	payload any
}

// actions accumulates sends to perform after the runtime lock is released
// (the transport schedules timers, which itself needs the lock). Deliveries
// go straight to the mailbox via PutLocked, preserving total order.
type actions struct {
	// Queued sends, in order: the first few in an array — an ordering round
	// in a small group queues no more, so the common event's sends live in
	// the caller's frame — the rest in a slice.
	first  [4]outMsg
	nfirst int
	rest   []outMsg
	// dups are already-ordered submits (with the position each was ordered
	// at, 0 when pruned) to surface through the DuplicateSubmit hook once
	// the lock is released.
	dups []dupSubmit
	// opts are fresh submits to surface through the OptimisticDeliver hook
	// once the lock is released.
	opts []Submit
	// hints are sequencer spontaneous-order predictions to surface through
	// the HintDeliver hook once the lock is released.
	hints []Hint
	// nacked dedups gap NACKs within one lock section (see
	// handleOrderedLocked).
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

// sendPeers queues payload for every other member of the current view. The
// payload is boxed by the caller, once, not once per peer.
func (a *actions) sendPeers(m *Member, payload any) {
	for _, peer := range m.view.Members {
		if peer != m.cfg.Self {
			a.send(peer, payload)
		}
	}
}

func (a *actions) do(send func(to wire.NodeID, payload any)) {
	for _, s := range a.first[:a.nfirst] {
		send(s.to, s.payload)
	}
	for _, s := range a.rest {
		send(s.to, s.payload)
	}
}

// finish runs the post-lock tail of an event: queued sends, then the
// duplicate-submit / optimistic-delivery / hint notifications (which may
// call back into the replica layer and so must also run without the
// runtime lock held).
func (a *actions) finish(m *Member) {
	a.do(m.cfg.Send)
	if m.cfg.DuplicateSubmit != nil {
		for _, d := range a.dups {
			m.cfg.DuplicateSubmit(d.sub, d.seq)
		}
	}
	if m.cfg.OptimisticDeliver != nil {
		for _, s := range a.opts {
			m.cfg.OptimisticDeliver(s)
		}
	}
	if m.cfg.HintDeliver != nil {
		for _, h := range a.hints {
			m.cfg.HintDeliver(h)
		}
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
		if peer == m.cfg.Self {
			alive++
			continue
		}
		seen, ok := m.lastSeen[peer]
		if !ok || now-seen <= m.cfg.SuspectAfter {
			alive++
		}
	}
	return 2*alive > len(m.view.Members)
}

// handleSubmitLocked takes in a submit that `from` sent: the origin itself
// (a client or a member of another group addressing this member, or this
// member's own Broadcast), or a member passing the origin's copy on — a
// relay.
func (m *Member) handleSubmitLocked(from wire.NodeID, sub Submit, act *actions) {
	fromOrigin := from == sub.Origin
	if e := m.ids[sub.ID]; e.seq != 0 {
		if !fromOrigin {
			// A relay of something already ordered: another copy got to the
			// sequencer first. Only a copy that comes from its origin says the
			// origin is still waiting, so this one is neither reported nor
			// answered with the log.
			return
		}
		if e.overtaken {
			// Not a retransmission: in a direct-copy group the origin sends to
			// every member and this member's copy lost the race against the
			// sequencer's Ordered. The execution replies on its own; a replay
			// here would be a second reply to a client that never asked twice.
			// The trade: when the direct copy and the reply were both lost,
			// this is the client's first retransmission after all, and the
			// replay waits for its second — one retransmit interval later.
			// Only the report is withheld; the log re-broadcast below does not
			// wait.
			e.overtaken = false
			m.ids[sub.ID] = e
		} else if m.cfg.DuplicateSubmit != nil {
			act.dups = append(act.dups, dupSubmit{sub: sub, seq: e.seq})
		}
		// A duplicate of something already ordered — usually a client
		// retransmission because some replica never received the ordered
		// message (e.g. the final message of a burst was lost and no later
		// traffic triggered a NACK). Re-broadcast the retained log from that
		// point through the frontier: trailing messages (such as a
		// scheduler's mutex-table update ordered right after the request)
		// may be the very thing the lagging replica is missing.
		if m.isSequencerLocked() {
			const batch = 64
			for s := e.seq; s < m.nextSeq && s < e.seq+batch; s++ {
				if o, ok := m.log.get(s); ok {
					act.sendPeers(m, o)
				}
			}
		}
		return
	}
	// First sight of a fresh, not-yet-ordered submit on this member? Later
	// copies find it in the submit cache.
	first := m.cacheSubmitLocked(sub)
	if first && m.cfg.OptimisticDeliver != nil {
		// Surface it on the optimistic-delivery stream, once per id.
		act.opts = append(act.opts, sub)
	}
	if m.isSequencerLocked() {
		m.sequenceSubmitLocked(sub, act)
		return
	}
	// Not the sequencer (or a view change is in progress): the submit stays
	// cached for resubmission after a view change, and goes to the sequencer
	// now if this member is where it entered the group. That is so for this
	// member's own broadcasts, and for the first copy its origin hands this
	// member: a client sends a request to one member, the sequencer unless
	// its knowledge is stale, so the copy may be the only one (and with
	// failure detection off nothing else would ever pass it on). Later
	// copies are retransmissions, which go to every member, and in a
	// direct-copy group so does the first: neither is passed on. Nor is a
	// relay, ever. A sequencer that is merely suspended (quorum lost, or
	// superseded epoch seen) must not forward to itself — the cached submit
	// is ordered once it resumes or a new view arrives.
	if !fromOrigin || m.installing != nil || m.view.Sequencer() == m.cfg.Self {
		return
	}
	if sub.Origin != m.cfg.Self {
		if !first || m.cfg.DirectCopies {
			return
		}
		if st := m.cfg.Stats; st != nil {
			st.SubmitsRelayed.Inc()
		}
	}
	act.send(m.view.Sequencer(), sub)
}

// sequenceSubmitLocked accepts a submit for ordering on the sequencer.
// With batching enabled it joins the open batch — broadcast at the end of
// the current event, when the batch fills, or when the delay timer fires —
// otherwise it is ordered immediately.
func (m *Member) sequenceSubmitLocked(sub Submit, act *actions) {
	if m.cfg.MaxBatch <= 1 {
		m.hintLocked(sub.ID, m.nextSeq, act)
		m.orderLocked(sub.ID, sub.Origin, sub.Payload, nil, act)
		return
	}
	for i := range m.batch {
		if m.batch[i].ID == sub.ID {
			return // already waiting in the open batch
		}
	}
	// Predicted position: the open batch flushes before anything else is
	// ordered in this event, so the submit takes nextSeq plus its batch
	// index. The prediction is announced before the ordering round — exact
	// in steady state, and harmlessly wrong across view changes.
	m.hintLocked(sub.ID, m.nextSeq+uint64(len(m.batch)), act)
	m.batch = append(m.batch, sub)
	if m.cfg.Spans != nil {
		m.batchAt = append(m.batchAt, m.rt.NowLocked())
	}
	if len(m.batch) >= m.cfg.MaxBatch {
		m.flushBatchLocked(act)
	}
}

// hintLocked queues a spontaneous-order hint for broadcast to every view
// member (the sequencer's own HintDeliver fires via the local actions
// tail). No-op unless Config.SpecHints is set.
func (m *Member) hintLocked(id string, seq uint64, act *actions) {
	if !m.cfg.SpecHints || id == "" {
		return
	}
	h := Hint{Group: m.cfg.Group, ID: id, Seq: seq}
	act.sendPeers(m, h)
	if m.cfg.HintDeliver != nil {
		act.hints = append(act.hints, h)
	}
}

// maybeFlushBatchLocked closes the open batch at the end of a lock section
// (immediate mode) or arms the delay timer. Every public entry point that
// can grow the batch calls it before releasing the runtime lock, so in
// immediate mode (MaxBatchDelay 0) a batch never outlives the event that
// opened it and a lone submit is broadcast exactly as without batching.
func (m *Member) maybeFlushBatchLocked(act *actions) {
	if len(m.batch) == 0 {
		return
	}
	if m.cfg.MaxBatchDelay <= 0 {
		m.flushBatchLocked(act)
		return
	}
	if m.batchTimer == nil {
		m.batchTimer = m.rt.AfterLocked(m.cfg.MaxBatchDelay, "gcs-batch/"+string(m.cfg.Self), m.batchTick)
	}
}

func (m *Member) batchTick() {
	var act actions
	m.rt.Lock()
	if !m.stopped {
		m.batchTimer = nil
		m.flushBatchLocked(&act)
	}
	m.rt.Unlock()
	act.finish(m)
}

// flushBatchLocked broadcasts the open batch as one ordering round:
// a single Ordered carrying len(batch) submits, Batch[i] taking sequence
// number Seq+i. Submits ordered since they were batched (by a view change
// or resubmit race) are filtered out; if the member lost the sequencer role
// while the batch was open the whole batch is dropped — every submit
// survives in submitCache and the view-change/resubmit paths re-send them.
func (m *Member) flushBatchLocked(act *actions) {
	if t := m.batchTimer; t != nil {
		m.batchTimer = nil
		m.rt.StopTimerLocked(t)
	}
	batch := m.batch
	m.batch = nil
	handedOff := len(batch) > 0 && m.isSequencerLocked() && m.orderBatchLocked(batch, act)
	m.batchAt = m.batchAt[:0]
	if !handedOff {
		// The array serves the next batch too; cleared, so that idle it
		// pins no payload.
		clear(batch)
		m.batch = batch[:0]
	}
}

// orderBatchLocked orders what is left of batch as one round. It reports
// whether the round went out in the batch form, whose Ordered aliases
// batch's backing array.
func (m *Member) orderBatchLocked(batch []Submit, act *actions) bool {
	if m.cfg.Spans != nil {
		// Batch residency: how long each traced submit sat in the open
		// batch before this ordering round broadcast it.
		now := m.rt.NowLocked()
		for i, sub := range batch {
			if m.orderedLocked(sub.ID) || i >= len(m.batchAt) {
				continue
			}
			if ctx := sub.TraceCtx(); ctx.Valid() {
				m.cfg.Spans.Record(tracing.Span{
					Trace:  ctx.TraceID,
					ID:     tracing.NewSpanID(ctx.TraceID, "seq.batch", string(m.cfg.Self), m.batchAt[i]),
					Parent: ctx.Span,
					Name:   "seq.batch",
					Node:   string(m.cfg.Self),
					Shard:  m.cfg.Shard,
					Start:  m.batchAt[i],
					Dur:    now - m.batchAt[i],
				})
			}
		}
	}
	subs := batch[:0]
	for _, sub := range batch {
		if !m.orderedLocked(sub.ID) {
			subs = append(subs, sub)
		}
	}
	if len(subs) == 0 {
		return false
	}
	if len(subs) == 1 {
		m.orderLocked(subs[0].ID, subs[0].Origin, subs[0].Payload, nil, act)
		return false
	}
	o := Ordered{
		Group:  m.cfg.Group,
		Epoch:  m.view.Epoch,
		Seq:    m.nextSeq,
		Origin: m.cfg.Self,
		Batch:  subs,
	}
	m.nextSeq += uint64(len(subs))
	for i, sub := range subs {
		m.markOrderedIDLocked(sub.ID, o.Seq+uint64(i))
	}
	if st := m.cfg.Stats; st != nil {
		st.Batches.Inc()
		st.BatchedSubmits.Add(uint64(len(subs)))
	}
	act.sendPeers(m, o)
	m.handleOrderedLocked(o, act)
	return true
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
	act.sendPeers(m, o)
	m.handleOrderedLocked(o, act)
}

func (m *Member) handleOrderedLocked(o Ordered, act *actions) {
	if len(o.Batch) > 0 {
		// A batched round: unpack into single messages immediately so the
		// retransmission log, NACK recovery and view sync never see the
		// batch form.
		for i, sub := range o.Batch {
			m.handleOrderedLocked(Ordered{
				Group:   o.Group,
				Epoch:   o.Epoch,
				Seq:     o.Seq + uint64(i),
				ID:      sub.ID,
				Origin:  sub.Origin,
				Payload: sub.Payload,
			}, act)
		}
		return
	}
	if o.Seq < m.nextDeliver {
		return // duplicate
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
		m.retainLocked(o)
		m.deliverReadyLocked(act)
		gap = m.log.hi() > m.nextDeliver
	}
	if gap && !act.nacked {
		// One NACK per lock section: unpacking a batch that lands above the
		// delivery frontier would otherwise request the same gap once per
		// element.
		act.nacked = true
		act.send(m.view.Sequencer(), Nack{Group: m.cfg.Group, From: m.cfg.Self, Want: m.nextDeliver})
	}
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
		if m.cfg.DirectCopies && !direct && !m.view.Contains(o.Origin) {
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
		// Enqueue before installing: if this member is the new sequencer,
		// installViewLocked re-orders its cached submits, which delivers
		// them recursively — the view event must precede them in the stream.
		m.deliveries.PutLocked(d)
		m.installViewLocked(v, act)
		return
	}
	m.deliveries.PutLocked(d)
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
	m.truncateLocked()
	// Resubmit cached submits so nothing that only the crashed sequencer
	// saw is lost. The new sequencer deduplicates by id.
	if m.view.Sequencer() == m.cfg.Self {
		for id := range m.cacheOrder.All() {
			if c, ok := m.submitCache[id]; ok {
				m.orderLocked(c.sub.ID, c.sub.Origin, c.sub.Payload, nil, act)
			}
		}
		return
	}
	for id := range m.cacheOrder.All() {
		if c, ok := m.submitCache[id]; ok {
			act.send(m.view.Sequencer(), c.sub)
		}
	}
}

func (m *Member) handleNackLocked(n Nack, act *actions) {
	if st := m.cfg.Stats; st != nil {
		st.Nacks.Inc()
	}
	start := n.Want
	if n.Want <= m.logFloor && m.snapData != nil {
		// The requested tail has been truncated: bring the peer forward
		// with the latest checkpoint, then resend what is retained above it.
		act.send(n.From, Snapshot{Group: m.cfg.Group, Seq: m.snapSeq, Data: m.snapData})
		if st := m.cfg.Stats; st != nil {
			st.SnapshotsSent.Inc()
		}
		start = m.snapSeq + 1
	}
	// Resend whatever is retained from start upward (bounded batch).
	const batch = 256
	sent := 0
	for seq := max(start, m.log.lo); seq < m.log.hi() && sent < batch; seq++ {
		if o, ok := m.log.get(seq); ok {
			act.send(n.From, o)
			sent++
		}
	}
}

// handleSnapshotLocked installs a checkpoint received in place of a
// truncated tail: it stands in for every ordered message up to and
// including p.Seq, so pending messages at or below it are dropped and
// delivery resumes at p.Seq+1. A snapshot behind the delivery frontier is
// stale and ignored — everything it covers was already delivered here.
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
		m.snapSeq = p.Seq
		m.snapData = p.Data
		m.truncateLocked()
	}
	m.deliverReadyLocked(act)
}

// --- bookkeeping ---

const maxTrackedIDs = 1 << 14

// idEntry is what a member knows of one message id. seq is the position the
// id was ordered at, 0 while this member has only broadcast it; sentAt is
// when it did (own ids, with cfg.Stats), until the delivery has been timed.
// overtaken marks an id this member delivered before it saw the origin's
// direct copy (only with cfg.DirectCopies, see handleSubmitLocked).
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

// cacheSubmitLocked remembers a not-yet-ordered submit and reports whether
// this is the first this member sees of it.
func (m *Member) cacheSubmitLocked(sub Submit) bool {
	if _, ok := m.submitCache[sub.ID]; ok {
		return false
	}
	m.submitCache[sub.ID] = cachedSubmit{sub: sub, at: m.rt.NowLocked()}
	m.cacheOrder.Push(sub.ID)
	// Submits are ordered about as they came, so what the head of the queue
	// names has mostly left the cache since: dropped here, the queue stays
	// about as short as the cache instead of filling up with ordered ids.
	for {
		head := *m.cacheOrder.At(0)
		if _, live := m.submitCache[head]; live && m.cacheOrder.Len() <= maxTrackedIDs {
			return true
		}
		m.cacheOrder.Pop()
		delete(m.submitCache, head)
	}
}

// retainLocked puts o in the log, and past twice cfg.LogRetain cuts the log
// back to that many below the delivery frontier plus everything not yet
// delivered — never evicting a held migration tail.
func (m *Member) retainLocked(o Ordered) {
	m.log.put(o)
	if m.log.n > 2*m.cfg.LogRetain {
		floor := uint64(0)
		if m.nextDeliver > uint64(m.cfg.LogRetain) {
			floor = m.nextDeliver - uint64(m.cfg.LogRetain)
		}
		if m.holdSeq != 0 && floor > m.holdSeq {
			floor = m.holdSeq
		}
		m.log.dropBelow(floor)
	}
	if st := m.cfg.Stats; st != nil {
		st.LogLength.Set(int64(m.log.n))
	}
}

// truncateLocked drops retained log entries at or below the stability
// floor. With failure detection the floor is min(checkpoint, watermark),
// where the watermark is the lowest delivery frontier across the current
// view (self included; peers report theirs via heartbeat Acked, a peer
// never heard from holds it at 0) — so no entry a live view member might
// still NACK is dropped. Without failure detection there are no acks and
// the checkpoint alone bounds the log: NACKs below the floor are answered
// with the snapshot instead of the dropped entries.
func (m *Member) truncateLocked() {
	if m.snapSeq == 0 {
		return
	}
	floor := m.snapSeq
	if m.cfg.FailureDetection {
		if w := m.watermarkLocked(); w < floor {
			floor = w
		}
	}
	if m.holdSeq != 0 && floor >= m.holdSeq {
		floor = m.holdSeq - 1
		if st := m.cfg.Stats; st != nil {
			st.TruncationHeld.Inc()
		}
	}
	if floor <= m.logFloor {
		return
	}
	removed := m.log.dropBelow(floor + 1)
	m.logFloor = floor
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

func (m *Member) touchLocked(from wire.NodeID, now time.Duration) {
	m.lastSeen[from] = now
}
