package gcs

import (
	"slices"
	"sort"
	"strconv"

	"github.com/replobj/replobj/internal/wire"
)

// This file implements failure detection and view changes: suspicion,
// proposal, tail synchronization by the new sequencer, and the in-stream
// view-change announcement.

func (m *Member) scheduleFDTick() {
	if m.enter() {
		m.fdTimer = m.rt.AfterLocked(m.cfg.HeartbeatEvery, "gcs-fd/"+string(m.cfg.Self), m.fdTick)
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

func (m *Member) fdTickLocked(act *actions) {
	now := m.rt.NowLocked()
	hb := Heartbeat{
		Group:  m.cfg.Group,
		From:   m.cfg.Self,
		Epoch:  m.view.Epoch,
		MaxSeq: m.nextSeq - 1,
		Acked:  m.nextDeliver - 1,
	}
	for _, peer := range m.view.Members {
		if peer != m.cfg.Self {
			act.send(peer, hb)
			if st := m.cfg.Stats; st != nil {
				st.Heartbeats.Inc()
			}
		}
	}
	// Suspect silent members of the current view.
	suspects := make(map[wire.NodeID]bool)
	for _, peer := range m.view.Members {
		if peer == m.cfg.Self {
			continue
		}
		seen, ok := m.lastSeen[peer]
		if !ok {
			m.lastSeen[peer] = now // never heard from it: start the clock
			continue
		}
		if now-seen > m.cfg.SuspectAfter {
			suspects[peer] = true
		}
	}
	if st := m.cfg.Stats; st != nil {
		st.Suspicions.Add(uint64(len(suspects)))
	}
	// Desired membership: the current view minus suspects, plus initial
	// members outside the view that have been heard again recently (a
	// crash-restarted or healed node) — the latter re-added at their
	// original rank, proposed only by the sequencer to avoid proposal
	// storms.
	isSeq := m.installing == nil && m.view.Sequencer() == m.cfg.Self
	rejoin := false
	excluded := make(map[wire.NodeID]bool)
	for _, peer := range m.cfg.Members {
		if peer == m.cfg.Self {
			continue
		}
		if m.view.Contains(peer) {
			if suspects[peer] {
				excluded[peer] = true
			}
			continue
		}
		seen, ok := m.lastSeen[peer]
		if isSeq && ok && now-seen <= m.cfg.SuspectAfter {
			rejoin = true
		} else {
			excluded[peer] = true
		}
	}
	if (len(suspects) > 0 || rejoin) && m.installing == nil && m.view.Contains(m.cfg.Self) {
		members := rankSubset(m.cfg.Members, excluded)
		if len(members) > 0 && (!m.cfg.Quorum || 2*len(members) > len(m.view.Members)) {
			next := View{Epoch: m.view.Epoch + 1, Members: members}
			act.sendAll(m, members, Propose{Group: m.cfg.Group, From: m.cfg.Self, View: next})
			m.adoptProposalLocked(next, act)
		}
	}
	// Re-send cached submits that have sat unordered for too long: either
	// the submit never reached the sequencer or its Ordered never came
	// back. The sequencer deduplicates by id, so resends are harmless; a
	// suspended sequencer orders its own backlog here once it resumes.
	if m.installing == nil {
		for id := range m.cacheOrder.All() {
			c, ok := m.submitCache[id]
			if !ok || m.orderedLocked(id) || now-c.at < m.cfg.ResubmitAfter {
				continue
			}
			c.at = now // refresh: one resend per ResubmitAfter
			m.submitCache[id] = c
			if m.isSequencerLocked() {
				m.sequenceLocked(c.sub, act)
			} else if m.view.Sequencer() != m.cfg.Self {
				act.send(m.view.Sequencer(), c.sub)
			}
		}
	}
}

// adoptProposalLocked moves the member into the "installing" state for a
// higher-epoch view. If this member is the proposed sequencer it starts the
// tail synchronization round.
func (m *Member) adoptProposalLocked(v View, act *actions) {
	cur := m.view.Epoch
	if m.installing != nil && m.installing.Epoch > cur {
		cur = m.installing.Epoch
	}
	if v.Epoch <= cur {
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
	if vv.Sequencer() != m.cfg.Self {
		// The proposed sequencer may die before committing the view event,
		// which would otherwise leave this member in the installing state
		// forever (fdTick proposes nothing while installing). Abandon the
		// install once the proposer has had ample time (its own sync grace
		// plus delivery slack) so suspicion and re-proposal can resume.
		epoch := vv.Epoch
		m.syncTimer = m.rt.AfterLocked(2*m.cfg.SyncGrace, "gcs-installgrace/"+string(m.cfg.Self), func() {
			var out actions
			if m.enter() && m.installing != nil && m.installing.Epoch == epoch &&
				m.installing.Sequencer() != m.cfg.Self {
				m.installing = nil
				m.syncResps = nil
				m.syncTimer = nil
			}
			m.leave(&out)
		})
		return
	}
	// New sequencer: collect tails from every proposed member.
	act.sendAll(m, vv.Members, SyncReq{Group: m.cfg.Group, From: m.cfg.Self, View: vv})
	m.syncResps[m.cfg.Self] = m.tailLocked(vv.Epoch)
	epoch := vv.Epoch
	m.syncTimer = m.rt.AfterLocked(m.cfg.SyncGrace, "gcs-syncgrace/"+string(m.cfg.Self), func() {
		var out actions
		if m.enter() && m.installing != nil && m.installing.Epoch == epoch &&
			m.installing.Sequencer() == m.cfg.Self {
			m.finishSyncLocked(&out)
		}
		m.leave(&out)
	})
	m.maybeFinishSyncLocked(act)
}

func (m *Member) handleSyncReqLocked(req SyncReq, act *actions) {
	m.adoptProposalLocked(req.View, act)
	if req.View.Epoch <= m.view.Epoch {
		return // already installed; the requester has moved on too
	}
	act.send(req.From, m.tailLocked(req.View.Epoch))
}

func (m *Member) handleSyncRespLocked(resp SyncResp, act *actions) {
	if m.installing == nil || resp.Epoch != m.installing.Epoch ||
		m.installing.Sequencer() != m.cfg.Self {
		return
	}
	m.syncResps[resp.From] = resp
	m.maybeFinishSyncLocked(act)
}

func (m *Member) maybeFinishSyncLocked(act *actions) {
	if m.installing == nil || m.installing.Sequencer() != m.cfg.Self {
		return
	}
	for _, peer := range m.installing.Members {
		if _, ok := m.syncResps[peer]; !ok {
			return
		}
	}
	m.finishSyncLocked(act)
}

// finishSyncLocked is run by the new sequencer once all live members
// answered (or the grace period expired). It merges tails, rebroadcasts the
// union so every member can close gaps, fills irrecoverably lost sequence
// numbers with no-ops, announces the view in-stream, and re-orders cached
// submits.
func (m *Member) finishSyncLocked(act *actions) {
	v := m.installing.clone()
	merged := make(map[uint64]Ordered, m.log.n)
	for o := range m.log.all() {
		merged[o.Seq] = o
	}
	minDelivered := m.nextDeliver - 1
	maxSeq := m.nextSeq - 1
	pending := make(map[string]Submit)
	for _, resp := range m.syncResps {
		if resp.Delivered < minDelivered {
			minDelivered = resp.Delivered
		}
		if resp.Delivered > maxSeq {
			maxSeq = resp.Delivered
		}
		for _, o := range resp.Tail {
			if o.Seq > maxSeq {
				maxSeq = o.Seq
			}
			if _, ok := merged[o.Seq]; !ok {
				merged[o.Seq] = o
			}
		}
		for _, sub := range resp.Pending {
			pending[sub.ID] = sub
		}
	}
	for seq := range merged {
		if seq > maxSeq {
			maxSeq = seq
		}
	}
	for _, o := range merged {
		m.markOrderedIDLocked(o.ID, o.Seq)
	}
	// Best checkpoint across the responses. When a member's frontier sits
	// below it, the stretch in between may have been truncated everywhere —
	// bring such members forward via state transfer instead of no-op
	// fillers, which would silently skip real requests.
	var bestSnapSeq uint64
	var bestSnap []byte
	for _, resp := range m.syncResps {
		if resp.SnapSeq > bestSnapSeq && len(resp.Snap) > 0 {
			bestSnapSeq = resp.SnapSeq
			bestSnap = resp.Snap
		}
	}
	start := minDelivered + 1
	if bestSnapSeq > minDelivered {
		snap := Snapshot{Group: m.cfg.Group, Seq: bestSnapSeq, Data: bestSnap}
		for _, resp := range m.syncResps {
			if resp.From != m.cfg.Self && resp.Delivered < bestSnapSeq {
				act.send(resp.From, snap)
				if st := m.cfg.Stats; st != nil {
					st.SnapshotsSent.Inc()
				}
			}
		}
		m.handleSnapshotLocked(snap, act) // no-op unless self is behind too
		if bestSnapSeq > m.snapSeq {
			m.snapSeq = bestSnapSeq
			m.snapData = bestSnap
		}
		start = bestSnapSeq + 1
	}
	// Rebroadcast the tail above the lowest delivery frontier (or the
	// checkpoint) so every member can fill its gaps; sequence numbers nobody
	// retains are filled with no-ops so the delivery frontier can pass them
	// (their submits are re-ordered below or retransmitted by clients).
	for seq := start; seq <= maxSeq; seq++ {
		o, ok := merged[seq]
		if !ok {
			o = Ordered{Group: m.cfg.Group, Epoch: v.Epoch, Seq: seq, Origin: m.cfg.Self}
		}
		act.sendAll(m, v.Members, o)
		m.handleOrderedLocked(o, act)
	}
	// Become the sequencer of the new view: continue the shared numbering.
	if m.nextSeq <= maxSeq {
		m.nextSeq = maxSeq + 1
	}
	m.installing = nil
	prevEpoch := m.view.Epoch
	m.view = v.clone()
	m.view.Epoch = prevEpoch // authoritative bump happens at delivery
	m.orderLocked(viewEventID(v), m.cfg.Self, nil, &v, act)
	// Re-order surviving submits in a deterministic order.
	for id, c := range m.submitCache {
		pending[id] = c.sub
	}
	ids := make([]string, 0, len(pending))
	for id := range pending {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		sub := pending[id]
		m.orderLocked(sub.ID, sub.Origin, sub.Payload, nil, act)
	}
}

// tailLocked snapshots this member's retained state for the new sequencer.
func (m *Member) tailLocked(epoch uint64) SyncResp {
	tail := slices.Collect(m.log.all())
	pend := make([]Submit, 0, len(m.submitCache))
	for id := range m.cacheOrder.All() {
		if c, ok := m.submitCache[id]; ok {
			pend = append(pend, c.sub)
		}
	}
	return SyncResp{
		Group:     m.cfg.Group,
		From:      m.cfg.Self,
		Epoch:     epoch,
		Delivered: m.nextDeliver - 1,
		Tail:      tail,
		Pending:   pend,
		SnapSeq:   m.snapSeq,
		Snap:      m.snapData,
	}
}

func viewEventID(v View) string {
	return "viewevent/" + string(v.Sequencer()) + "/" + strconv.FormatUint(v.Epoch, 10)
}
