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

	// Sequencer state.
	nextSeq    uint64
	orderedIDs map[string]bool
	idToSeq    map[string]uint64  // ordered id → sequence number (for resends)
	idOrder    ring.Queue[string] // FIFO for pruning orderedIDs
	// overtaken holds ids this member delivered before it saw their direct
	// copy (pruned with idOrder); only with cfg.DirectCopies, see
	// handleSubmitLocked.
	overtaken map[string]struct{}

	// Sequencer-side submit batching (Config.MaxBatch/MaxBatchDelay):
	// submits accepted but not yet broadcast. Flushed at the end of the
	// event that opened the batch, when it fills, or when batchTimer fires.
	batch      []Submit
	batchAt    []time.Duration // batch[i]'s arrival time (only with cfg.Spans)
	batchTimer *vtime.Timer

	// Delivery state.
	nextDeliver  uint64
	pendingOrder map[uint64]Ordered

	// Retained ordered messages for NACK retransmission and view sync.
	log map[uint64]Ordered

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

	// Submits seen but possibly not yet ordered; resubmitted on view change
	// and re-sent by the FD tick once stale (cacheAt records when each was
	// last sent toward the sequencer).
	submitCache map[string]Submit
	cacheOrder  ring.Queue[string]
	cacheAt     map[string]time.Duration

	// maxSeenEpoch is the highest view epoch observed in any protocol
	// message. A sequencer whose installed epoch is below it has been
	// superseded (e.g. it was partitioned away and deposed) and must not
	// order messages until it catches up to the newer view.
	maxSeenEpoch uint64

	// Broadcast timestamps for self-originated ids, used to measure
	// broadcast→deliver latency. Only populated when cfg.Stats is set.
	submitAt    map[string]time.Duration
	submitAtIDs ring.Queue[string]

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
		rt:           rt,
		cfg:          cfg,
		deliveries:   vtime.NewMailbox[Delivery](rt, "gcs/"+string(cfg.Self)),
		view:         View{Epoch: 0, Members: append([]wire.NodeID(nil), cfg.Members...)},
		nextSeq:      1,
		nextDeliver:  1,
		orderedIDs:   make(map[string]bool),
		idToSeq:      make(map[string]uint64),
		overtaken:    make(map[string]struct{}),
		pendingOrder: make(map[uint64]Ordered),
		log:          make(map[uint64]Ordered),
		submitCache:  make(map[string]Submit),
		cacheAt:      make(map[string]time.Duration),
		lastSeen:     make(map[wire.NodeID]time.Duration),
		peerAcked:    make(map[wire.NodeID]uint64),
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
			m.noteSubmitLocked(id, m.rt.NowLocked())
		}
		m.handleSubmitLocked(m.cfg.Self, sub, &act)
		m.maybeFlushBatchLocked(&act)
	}
	m.rt.Unlock()
	act.finish(m)
}

// noteSubmitLocked remembers when a self-originated id was broadcast so its
// delivery latency can be observed. The map is capped to bound memory when
// deliveries stall.
func (m *Member) noteSubmitLocked(id string, now time.Duration) {
	const maxTrackedSubmits = 1 << 13
	if m.submitAt == nil {
		m.submitAt = make(map[string]time.Duration)
	}
	if _, ok := m.submitAt[id]; ok {
		return
	}
	m.submitAt[id] = now
	m.submitAtIDs.Push(id)
	if m.submitAtIDs.Len() > maxTrackedSubmits {
		old, _ := m.submitAtIDs.Pop()
		delete(m.submitAt, old)
	}
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
	return len(m.log)
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
	if m.orderedIDs[sub.ID] {
		if !fromOrigin {
			// A relay of something already ordered: another copy got to the
			// sequencer first. Only a copy that comes from its origin says the
			// origin is still waiting, so this one is neither reported nor
			// answered with the log.
			return
		}
		if _, first := m.overtaken[sub.ID]; first {
			// Not a retransmission: in a direct-copy group the origin sends to
			// every member and this member's copy lost the race against the
			// sequencer's Ordered. The execution replies on its own; a replay
			// here would be a second reply to a client that never asked twice.
			// The trade: when the direct copy and the reply were both lost,
			// this is the client's first retransmission after all, and the
			// replay waits for its second — one retransmit interval later.
			// Only the report is withheld; the log re-broadcast below does not
			// wait.
			delete(m.overtaken, sub.ID)
		} else if m.cfg.DuplicateSubmit != nil {
			act.dups = append(act.dups, dupSubmit{sub: sub, seq: m.idToSeq[sub.ID]})
		}
		// A duplicate of something already ordered — usually a client
		// retransmission because some replica never received the ordered
		// message (e.g. the final message of a burst was lost and no later
		// traffic triggered a NACK). Re-broadcast the retained log from that
		// point through the frontier: trailing messages (such as a
		// scheduler's mutex-table update ordered right after the request)
		// may be the very thing the lagging replica is missing.
		if m.isSequencerLocked() {
			if seq, ok := m.idToSeq[sub.ID]; ok {
				const batch = 64
				for s := seq; s < m.nextSeq && s < seq+batch; s++ {
					if o, ok := m.log[s]; ok {
						act.sendPeers(m, o)
					}
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
			if m.orderedIDs[sub.ID] || i >= len(m.batchAt) {
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
		if !m.orderedIDs[sub.ID] {
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
		m.markOrderedIDLocked(sub.ID)
		m.idToSeq[sub.ID] = o.Seq + uint64(i)
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
	if id != "" && m.orderedIDs[id] {
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
	m.markOrderedIDLocked(id)
	if id != "" {
		m.idToSeq[id] = o.Seq
	}
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
	m.pendingOrder[o.Seq] = o
	m.retainLocked(o)
	if m.nextSeq <= o.Seq {
		m.nextSeq = o.Seq + 1 // keep the shared sequence space monotone
	}
	for {
		next, ok := m.pendingOrder[m.nextDeliver]
		if !ok {
			break
		}
		delete(m.pendingOrder, m.nextDeliver)
		m.nextDeliver++
		m.deliverLocked(next, act)
	}
	if len(m.pendingOrder) > 0 && !act.nacked {
		// One NACK per lock section: unpacking a batch that lands above the
		// delivery frontier would otherwise request the same gap once per
		// element.
		act.nacked = true
		act.send(m.view.Sequencer(), Nack{Group: m.cfg.Group, From: m.cfg.Self, Want: m.nextDeliver})
	}
}

func (m *Member) deliverLocked(o Ordered, act *actions) {
	if st := m.cfg.Stats; st != nil {
		st.Delivered.Inc()
		if o.Origin == m.cfg.Self && o.ID != "" {
			if t0, ok := m.submitAt[o.ID]; ok {
				delete(m.submitAt, o.ID)
				st.DeliverLatency.Observe((m.rt.NowLocked() - t0).Seconds())
			}
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
				if t0, ok := m.cacheAt[o.ID]; ok {
					start = t0
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
	m.markOrderedIDLocked(o.ID)
	if o.ID != "" {
		m.idToSeq[o.ID] = o.Seq
		if _, direct := m.submitCache[o.ID]; m.cfg.DirectCopies && !direct && !m.view.Contains(o.Origin) {
			// The Ordered copy got here before the submitter's own, which in
			// a direct-copy group is on its way. A member's own broadcast
			// goes to the sequencer alone, and so does a client's request
			// in any other group: there the first direct copy of an ordered
			// id is a retransmission, and a mark would only make its
			// replay wait for the second.
			m.overtaken[o.ID] = struct{}{}
		}
	}
	delete(m.submitCache, o.ID)
	delete(m.cacheAt, o.ID)
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
			if sub, ok := m.submitCache[id]; ok {
				m.orderLocked(sub.ID, sub.Origin, sub.Payload, nil, act)
			}
		}
		return
	}
	for id := range m.cacheOrder.All() {
		if sub, ok := m.submitCache[id]; ok {
			act.send(m.view.Sequencer(), sub)
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
	for seq := start; seq < m.nextSeq && sent < batch; seq++ {
		if o, ok := m.log[seq]; ok {
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
	for seq := range m.pendingOrder {
		if seq <= p.Seq {
			delete(m.pendingOrder, seq)
		}
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
	for {
		next, ok := m.pendingOrder[m.nextDeliver]
		if !ok {
			break
		}
		delete(m.pendingOrder, m.nextDeliver)
		m.nextDeliver++
		m.deliverLocked(next, act)
	}
}

// --- bookkeeping ---

const maxTrackedIDs = 1 << 14

func (m *Member) markOrderedIDLocked(id string) {
	if id == "" || m.orderedIDs[id] {
		return
	}
	m.orderedIDs[id] = true
	m.idOrder.Push(id)
	if m.idOrder.Len() > maxTrackedIDs {
		old, _ := m.idOrder.Pop()
		delete(m.orderedIDs, old)
		delete(m.idToSeq, old)
		delete(m.overtaken, old)
	}
}

// cacheSubmitLocked remembers a not-yet-ordered submit and reports whether
// this is the first this member sees of it.
func (m *Member) cacheSubmitLocked(sub Submit) bool {
	if _, ok := m.submitCache[sub.ID]; ok {
		return false
	}
	m.submitCache[sub.ID] = sub
	m.cacheAt[sub.ID] = m.rt.NowLocked()
	m.cacheOrder.Push(sub.ID)
	if m.cacheOrder.Len() > maxTrackedIDs {
		old, _ := m.cacheOrder.Pop()
		delete(m.submitCache, old)
		delete(m.cacheAt, old)
	}
	return true
}

func (m *Member) retainLocked(o Ordered) {
	m.log[o.Seq] = o
	defer func() {
		if st := m.cfg.Stats; st != nil {
			st.LogLength.Set(int64(len(m.log)))
		}
	}()
	if len(m.log) <= 2*m.cfg.LogRetain {
		return
	}
	// Rebuild, keeping a window below the delivery frontier plus everything
	// not yet delivered — and never evicting a held migration tail.
	floor := uint64(0)
	if m.nextDeliver > uint64(m.cfg.LogRetain) {
		floor = m.nextDeliver - uint64(m.cfg.LogRetain)
	}
	if m.holdSeq != 0 && floor > m.holdSeq {
		floor = m.holdSeq
	}
	for seq := range m.log {
		if seq < floor {
			delete(m.log, seq)
		}
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
	removed := uint64(0)
	for seq := range m.log {
		if seq <= floor {
			delete(m.log, seq)
			removed++
		}
	}
	m.logFloor = floor
	if st := m.cfg.Stats; st != nil {
		st.Truncated.Add(removed)
		st.LogLength.Set(int64(len(m.log)))
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
