package gcs

import (
	"slices"
	"strconv"
	"time"

	"github.com/replobj/replobj/internal/wire"
)

// This file implements failure detection and view changes: suspicion,
// proposal, tail synchronization by the new sequencer, and the in-stream
// view-change announcement.

func (m *Member) scheduleFDTick() {
	if m.enter() {
		m.fdTimer = m.rt.AfterLocked(heartbeatEvery, "gcs-fd/"+string(m.cfg.Self), m.fdTick)
	}
	m.rt.Unlock()
}

// fdTick is the failure detector's periodic event: heartbeat, suspicion and
// proposal, resend of stale submits.
func (m *Member) fdTick() {
	var act actions
	if m.enter() {
		m.fdTickLocked(&act)
	}
	m.leave(&act)
	m.scheduleFDTick()
}

// fdTickLocked is heartbeat → membership decision → adoptProposalLocked →
// resend of the submits that have sat unordered for ResubmitAfter (the
// submit or its Ordered was lost, or a snapshot skipped the Ordered).
func (m *Member) fdTickLocked(act *actions) {
	now := m.rt.NowLocked()
	hb := Heartbeat{Group: m.cfg.Group, From: m.cfg.Self, Epoch: m.view.Epoch, MaxSeq: m.nextSeq - 1, Acked: m.nextDeliver - 1}
	sent := act.sendAll(m, m.view.Members, hb)
	for _, peer := range m.view.Members {
		if _, heard := m.lastSeen[peer]; !heard && peer != m.cfg.Self {
			m.lastSeen[peer] = now // never heard from it: start the clock
		}
	}
	next := membership{
		view: m.view, installing: m.installing != nil, initial: m.cfg.Members, self: m.cfg.Self,
		lastSeen: m.lastSeen, now: now, suspectAfter: suspectAfter, quorum: m.cfg.Quorum,
	}.nextMembers()
	if st := m.cfg.Stats; st != nil {
		st.Heartbeats.Add(uint64(sent))
	}
	if next != nil {
		for _, p := range m.view.Members {
			if st := m.cfg.Stats; st != nil && !slices.Contains(next, p) {
				st.Suspicions.Inc()
			}
		}
		v := View{Epoch: m.view.Epoch + 1, Members: next}
		act.sendAll(m, next, Propose{Group: m.cfg.Group, From: m.cfg.Self, View: v})
		m.adoptProposalLocked(v, act)
	}
	m.resubmitLocked(m.cfg.ResubmitAfter, act)
}

// membership is what the membership decision reads.
type membership struct {
	view         View
	installing   bool
	initial      []wire.NodeID
	self         wire.NodeID
	lastSeen     map[wire.NodeID]time.Duration
	now          time.Duration
	suspectAfter time.Duration
	quorum       bool
}

// nextMembers is the membership decision: the next view's members in
// initial rank order, or nil for no change. A view member silent for longer
// than suspectAfter is suspected (one never heard from is not); an initial
// member outside the view heard within it rejoins — proposed only by the
// installed sequencer, against proposal storms. No change while installing,
// when self is not in the view, or (quorum) without a strict majority.
func (s membership) nextMembers() []wire.NodeID {
	if s.installing || !s.view.Contains(s.self) {
		return nil
	}
	mayRejoin := s.view.Sequencer() == s.self
	next := make([]wire.NodeID, 0, len(s.initial))
	changed := false
	for _, p := range s.initial {
		seen, heard := s.lastSeen[p]
		fresh := heard && s.now-seen <= s.suspectAfter
		inView := s.view.Contains(p)
		keep := p == s.self || inView && (!heard || fresh) || !inView && mayRejoin && fresh
		if keep {
			next = append(next, p)
		}
		changed = changed || keep != inView
	}
	if !changed || s.quorum && 2*len(next) <= len(s.view.Members) {
		return nil
	}
	return next
}

// adoptProposalLocked moves the member into the "installing" state for a
// higher-epoch view and arms the one grace timer of that epoch. If this
// member is the proposed sequencer it starts the tail synchronization round.
func (m *Member) adoptProposalLocked(v View, act *actions) {
	if v.Epoch <= m.view.Epoch || m.installing != nil && v.Epoch <= m.installing.Epoch {
		return
	}
	vv := v.clone()
	m.installing = &vv
	m.syncResps = make(map[wire.NodeID]SyncResp)
	if t := m.syncTimer; t != nil {
		// Back-to-back proposals: a grace timer armed for the abandoned
		// epoch must not fire against this install (it would clear the new
		// installing state or finish a sync round that no longer exists).
		m.syncTimer = nil
		m.rt.StopTimerLocked(t)
	}
	// The proposed sequencer waits that long for silent members' tails; any
	// other member twice as long before it abandons the install (a dead
	// proposer would leave it installing for ever: no tick proposes then).
	grace := 2 * suspectAfter
	if vv.Sequencer() != m.cfg.Self {
		grace *= 2
	}
	m.syncTimer = m.rt.AfterLocked(grace, "gcs-grace/"+string(m.cfg.Self), func() { m.graceExpired(vv.Epoch) })
	if vv.Sequencer() == m.cfg.Self {
		act.sendAll(m, vv.Members, SyncReq{Group: m.cfg.Group, From: m.cfg.Self, View: vv})
		m.handleSyncRespLocked(m.tailLocked(vv.Epoch), act)
	}
}

// graceExpired is the grace timer's event for the proposal of epoch: if it
// is still being installed, its sequencer finishes the sync round with the
// tails it has, and any other member abandons the install.
func (m *Member) graceExpired(epoch uint64) {
	var act actions
	if m.enter() && m.installing != nil && m.installing.Epoch == epoch {
		if m.installing.Sequencer() == m.cfg.Self {
			m.finishSyncLocked(&act)
		} else {
			m.installing, m.syncResps, m.syncTimer = nil, nil, nil
		}
	}
	m.leave(&act)
}

// handleSyncRespLocked takes in one member's tail, the proposed sequencer's
// own included, and finishes the sync round once every proposed member's is in.
func (m *Member) handleSyncRespLocked(resp SyncResp, act *actions) {
	if m.installing == nil || resp.Epoch != m.installing.Epoch ||
		m.installing.Sequencer() != m.cfg.Self {
		return
	}
	m.syncResps[resp.From] = resp
	for _, peer := range m.installing.Members {
		if _, ok := m.syncResps[peer]; !ok {
			return
		}
	}
	m.finishSyncLocked(act)
}

// finishSyncLocked is run by the new sequencer once every proposed member
// answered (or the grace period expired), over the answers in rank order:
// pick the best checkpoint, merge the tails, catch members up, announce the
// view in-stream, re-order the surviving submits.
func (m *Member) finishSyncLocked(act *actions) {
	v, got := m.installing.clone(), m.syncResps // the merge may install an older view, which clears syncResps
	var resps []SyncResp
	for _, p := range v.Members {
		if r, ok := got[p]; ok {
			resps = append(resps, r)
		}
	}
	m.adoptCheckpointLocked(resps, act)
	low := m.mergeTailsLocked(resps, v.Epoch, act)
	for _, p := range v.Members {
		from := low + 1 // a member that did not answer: the lowest frontier reported
		if r, ok := got[p]; ok {
			from = r.Delivered + 1
		}
		if p != m.cfg.Self {
			m.repairLocked(p, from, act)
		}
	}
	m.installing = nil
	m.view = View{Epoch: m.view.Epoch, Members: slices.Clone(v.Members)} // the epoch moves at delivery
	m.orderLocked(Submit{ID: viewEventID(v), Origin: m.cfg.Self}, &v, act)
	for _, r := range resps {
		for _, sub := range r.Pending {
			k := sub.key()
			if _, cached := m.submitCache[k]; !cached && !m.orderedLocked(k) {
				m.cacheSubmitLocked(k, sub)
			}
		}
	}
	m.resubmitLocked(0, act)
}

// adoptCheckpointLocked makes the best checkpoint any member holds this
// one's (installed here if past the frontier): what repair sends members
// behind a stretch the logs let go of, where no-op fillers would skip
// real requests.
func (m *Member) adoptCheckpointLocked(resps []SyncResp, act *actions) {
	best := SyncResp{SnapSeq: m.snapSeq}
	for _, r := range resps {
		if r.SnapSeq > best.SnapSeq && len(r.Snap) > 0 {
			best = r
		}
	}
	if best.SnapSeq > m.snapSeq {
		m.handleSnapshotLocked(Snapshot{Group: m.cfg.Group, Seq: best.SnapSeq, Data: best.Snap}, act)
		m.snapSeq, m.snapData = best.SnapSeq, best.Snap
	}
}

// mergeTailsLocked logs what any member retains above this one's frontier,
// fills the numbers nobody retains with no-ops (their submits are re-ordered
// or retransmitted), delivers, continues the numbering above the highest
// known, and returns the lowest frontier reported.
func (m *Member) mergeTailsLocked(resps []SyncResp, epoch uint64, act *actions) (low uint64) {
	low, top := m.nextDeliver-1, m.nextSeq-1
	for _, r := range resps {
		low, top = min(low, r.Delivered), max(top, r.Delivered)
		for _, o := range r.Tail {
			top = max(top, o.Seq)
			if _, held := m.log.get(o.Seq); !held && o.Seq >= m.nextDeliver {
				m.log.put(o)
			}
		}
	}
	for seq := m.nextDeliver; seq <= top; seq++ {
		if _, held := m.log.get(seq); !held {
			m.log.put(Ordered{Group: m.cfg.Group, Epoch: epoch, Seq: seq, Origin: m.cfg.Self})
		}
	}
	m.nextSeq = max(m.nextSeq, top+1)
	m.deliverReadyLocked(act)
	m.trimLocked()
	return low
}

// tailLocked snapshots this member's retained state for the new sequencer.
func (m *Member) tailLocked(epoch uint64) SyncResp {
	r := SyncResp{Group: m.cfg.Group, From: m.cfg.Self, Epoch: epoch, Delivered: m.nextDeliver - 1,
		Tail: slices.Collect(m.log.all()), SnapSeq: m.snapSeq, Snap: m.snapData}
	for k := range m.cacheOrder.All() {
		if c, ok := m.submitCache[k]; ok {
			r.Pending = append(r.Pending, c.sub)
		}
	}
	return r
}

func viewEventID(v View) string {
	return "viewevent/" + string(v.Sequencer()) + "/" + strconv.FormatUint(v.Epoch, 10)
}
