package replica

import (
	"fmt"
	"sort"
	"strconv"

	"github.com/replobj/replobj/internal/obs"
	"github.com/replobj/replobj/internal/shard"
	"github.com/replobj/replobj/internal/wire"
)

// Elastic resharding, replica side. A ring transition moves keys between
// shard groups — between two independent total orders — so every step is
// itself an ordered event:
//
//  1. Prepare (shard.PrepareMethod, ordered on every participating group)
//     arms the transition: the replica plans the migration against its
//     installed table, freezes checkpoints and pins gcs log truncation at
//     the prepare position.
//  2. Cut (source groups): at the first quiesced position after prepare,
//     the replica exports every moving key through the state's
//     KeyedSnapshotter, drops them locally, and submits the chunks into
//     each target group's total order. All replicas of the group reach
//     the same cut position (the quiescence verdict is a deterministic
//     function of the stream) and submit byte-identical chunks under the
//     same ids, so gcs dedup installs each chunk exactly once.
//  3. Dual-home window (source groups, post-cut): a request stamped with
//     the old epoch whose key has moved is accepted — at-most-once
//     bookkeeping included — and forwarded to the new home over the
//     ordered nested-invocation path, stamped with the next epoch. The
//     reply relays back through the source group's own order.
//  4. Install (target groups): delivered chunks are folded into the state
//     at quiesced positions; requests stamped with the next epoch for a
//     key whose handoff has not installed yet are parked and flushed — in
//     arrival order — the moment their source stream completes.
//  5. Fence (shard.FenceMethod): deterministically fails until the
//     handoff has drained, then installs the next epoch as current. The
//     cutover is exact: at the source's single ordered stream, an
//     old-epoch request for a moved key is delivered either before the
//     fence (executed locally pre-cut, or forwarded) or after it
//     (redirected) — never both.
//
// Sharded.Reshard in the public API orchestrates the sequence; the pure
// planning lives in internal/shard.

// KeyedSnapshotter is implemented by object states that support partial,
// per-key state transfer — the requirement for elastic resharding (the
// whole-state Snapshotter is not enough: a migration moves a subset of
// keys between two live states). All three methods are called only at
// quiesced ordered positions, with no request threads live.
type KeyedSnapshotter interface {
	// ExportKeys serializes every key selected by the predicate.
	ExportKeys(selected func(key string) bool) (map[string][]byte, error)
	// InstallKeys folds exported key images into this state.
	InstallKeys(state map[string][]byte) error
	// DropKeys removes keys handed off to another shard.
	DropKeys(keys []string) error
}

// KeyState is one key's serialized image inside a migration chunk.
type KeyState struct {
	Key  string
	Data []byte
}

// CacheEntry is one migrated reply-cache entry: the at-most-once
// bookkeeping of a moved key travels with its state, so a client
// retransmission of an already-executed invocation hitting the new home
// is answered from cache instead of re-executed.
type CacheEntry struct {
	ID    wire.InvocationID
	Key   string
	Reply Reply
	// Client and Call name the row of a numbered client request (see
	// Request.Call): at the target a later call of that client supersedes it
	// as it would have at the source. Both zero for a request kept by id.
	Client wire.NodeID
	Call   uint64
}

// MigrateChunk is one ordered handoff frame of a ring transition,
// submitted by the source group's replicas into the target group's total
// order at the source's quiesced cut. Every source replica submits
// byte-identical chunks under the same gcs ids, so the target orders each
// chunk exactly once regardless of source group size or crashes.
type MigrateChunk struct {
	// Object names the sharded object; Epoch is the transition's target
	// epoch (the chunk is part of the migration INTO that epoch).
	Object string
	Epoch  uint64
	// Source and Target are the handoff's shard groups.
	Source wire.GroupID
	Target wire.GroupID
	// Index/Count position this chunk in its (source → target) stream;
	// Count is carried by every chunk so the target learns the stream
	// extent from whichever chunk arrives first. A moved-key set can be
	// empty — the stream is then a single chunk with no keys.
	Index int
	Count int
	// Cut is the source group's stream position of the quiesced cut
	// (observability; targets do not interpret it).
	Cut uint64
	// Keys carries the moved key images; Cache the reply-cache entries of
	// moved keys (attached to the stream's first chunk).
	Keys  []KeyState
	Cache []CacheEntry
}

// chunkID is the gcs submission id of one handoff frame: identical on
// every source replica, so the target's sequencer dedups the group-wide
// resubmissions to one ordered instance.
func chunkID(object string, epoch uint64, source, target wire.GroupID, index int) string {
	return "migrate/" + object + "/" + strconv.FormatUint(epoch, 10) + "/" +
		string(source) + "/" + string(target) + "/" + strconv.Itoa(index)
}

// migration is a replica's handoff state between prepare and fence. It is
// only touched by the dispatch goroutine (all protocol steps happen at
// ordered positions); the runtime lock guards the fields the status
// handler and tests read.
type migration struct {
	plan *shard.Plan
	next *shard.Epoch
	// prepareSeq is the ordered position of the prepare (the truncation
	// hold point).
	prepareSeq uint64

	// Source role.
	outgoing []shard.Move
	cutDone  bool
	cutSeq   uint64

	// Target role: one stream per incoming move, keyed by source group.
	incoming map[wire.GroupID]*incomingStream

	// forwarded counts dual-home forwards relayed by this replica.
	forwarded int
}

// incomingStream tracks one source group's chunk stream: chunks buffer on
// delivery and install in index order at quiesced positions.
type incomingStream struct {
	move     shard.Move
	buffered map[int]MigrateChunk
	// next is the lowest uninstalled chunk index; count the stream extent
	// (0 until the first chunk arrives).
	next  int
	count int
	done  bool
	// parked buffers next-epoch requests for this stream's keys until the
	// handoff installs, in arrival order.
	parked []*dispatched
}

// bufferChunk files a delivered chunk under its stream. Replayed or alien
// chunks (wrong epoch, unplanned source, already-installed index) are
// dropped — a plan replay is idempotent by construction.
func (m *migration) bufferChunk(ck MigrateChunk) {
	if ck.Epoch != m.next.Table.Epoch {
		return
	}
	s := m.incoming[ck.Source]
	if s == nil || s.done || ck.Index < s.next {
		return
	}
	if _, dup := s.buffered[ck.Index]; dup {
		return
	}
	s.buffered[ck.Index] = ck
	if s.count == 0 && ck.Count > 0 {
		s.count = ck.Count
	}
}

// dispatchMigrateChunk handles an ordered MigrateChunk delivery. Chunks
// arriving before this group's own prepare (possible only if the
// orchestrator's prepare order is violated, but harmless to tolerate) are
// buffered aside and folded in at prepare; both buffers suppress
// checkpoints, so no snapshot ever covers half a handoff.
func (r *Replica) dispatchMigrateChunk(ck MigrateChunk) {
	r.rt.Lock()
	defer r.rt.Unlock()
	if r.stopped {
		return
	}
	if r.mig == nil {
		r.earlyChunks = append(r.earlyChunks, ck)
		return
	}
	r.mig.bufferChunk(ck)
}

// prepareMigration (shard.PrepareMethod) arms a transition at its ordered
// position.
func (r *Replica) prepareMigration(req Request, seq uint64) ([]byte, error) {
	next, err := shard.DecodeTable(req.Args)
	if err != nil {
		return nil, err
	}
	cur := r.shard.Current().Table
	if cur.Epoch == next.Epoch && cur.SameShards(next) {
		return r.installedTable() // post-fence prepare replay: idempotent
	}
	// Probe the plan before arming: a group whose state cannot do keyed
	// transfer must reject with nothing armed, identically everywhere.
	probe, err := shard.PlanMigration(cur, next)
	if err != nil {
		return nil, err
	}
	if len(probe.Outgoing(r.group)) > 0 || len(probe.Incoming(r.group)) > 0 {
		if _, ok := r.state.(KeyedSnapshotter); !ok {
			return nil, fmt.Errorf("replica: state %T does not implement KeyedSnapshotter; cannot reshard", r.state)
		}
	}
	plan, err := r.shard.BeginTransition(next)
	if err != nil {
		return nil, err
	}
	r.rt.Lock()
	if r.mig == nil {
		m := &migration{
			plan:       plan,
			next:       r.shard.Pending(),
			prepareSeq: seq,
			outgoing:   plan.Outgoing(r.group),
			incoming:   make(map[wire.GroupID]*incomingStream),
		}
		for _, mv := range plan.Incoming(r.group) {
			m.incoming[mv.Source] = &incomingStream{move: mv, buffered: make(map[int]MigrateChunk)}
		}
		for _, ck := range r.earlyChunks {
			m.bufferChunk(ck)
		}
		r.earlyChunks = nil
		r.mig = m
	}
	r.rt.Unlock()
	r.member.HoldTruncation(seq)
	r.migActive.Set(1)
	return r.installedTable()
}

// migrationProgress (shard.StatusMethod) answers a progress probe at its
// ordered position — a consistent cut of the stream, identical across
// replicas.
func (r *Replica) migrationProgress(Request, uint64) ([]byte, error) {
	return r.migrationStatus().Encode(), nil
}

func (r *Replica) migrationStatus() shard.Status {
	st := shard.Status{Epoch: r.shard.Current().Table.Epoch}
	r.rt.Lock()
	defer r.rt.Unlock()
	m := r.mig
	if m == nil {
		return st
	}
	st.Next = m.next.Table.Epoch
	st.OutTotal = len(m.outgoing)
	if m.cutDone {
		st.OutDone = st.OutTotal
	}
	st.InTotal = len(m.incoming)
	for _, s := range m.incoming {
		if s.done {
			st.InDone++
		}
		st.Parked += len(s.parked)
	}
	st.Forwarded = m.forwarded
	return st
}

// fenceMigration (shard.FenceMethod) completes, or deterministically
// refuses to complete, the transition at its ordered position.
func (r *Replica) fenceMigration(req Request, _ uint64) ([]byte, error) {
	next, err := shard.DecodeTable(req.Args)
	if err != nil {
		return nil, err
	}
	cur := r.shard.Current().Table
	if cur.Epoch == next.Epoch && cur.SameShards(next) {
		return r.installedTable() // post-fence replay: idempotent
	}
	pending := r.shard.Pending()
	if pending == nil || pending.Table.Epoch != next.Epoch {
		return nil, fmt.Errorf("replica: fence for epoch %d without matching transition (installed epoch %d)", next.Epoch, cur.Epoch)
	}
	if st := r.migrationStatus(); !st.Done() {
		return nil, fmt.Errorf("replica: fence before handoff drained (out %d/%d, in %d/%d, parked %d)",
			st.OutDone, st.OutTotal, st.InDone, st.InTotal, st.Parked)
	}
	if _, err := r.shard.FinalizeTransition(); err != nil {
		return nil, err
	}
	r.rt.Lock()
	r.mig = nil
	r.rt.Unlock()
	r.member.ReleaseTruncation()
	r.shardEpochG.Set(int64(next.Epoch))
	r.migActive.Set(0)
	r.trace.Record("order", obs.KindCheckpoint, "migrate-fence", strconv.FormatUint(next.Epoch, 10))
	return r.installedTable()
}

// migrationStep runs after every ordered delivery while a transition is
// armed: it retries the pending quiesced work (the source cut, target
// chunk installs) until the scheduler drains. The attempt set and the
// quiescence verdict are both pure functions of the stream, so every
// replica performs each step at the same position — certified by the
// migrate-* trace records, which divergence checks compare like any other
// event.
func (r *Replica) migrationStep(seq uint64) {
	r.rt.Lock()
	m := r.mig
	if m == nil {
		r.rt.Unlock()
		return
	}
	needCut := len(m.outgoing) > 0 && !m.cutDone
	needInstall := false
	for _, s := range m.incoming {
		if _, ok := s.buffered[s.next]; ok && !s.done {
			needInstall = true
			break
		}
	}
	if !needCut && !needInstall {
		r.rt.Unlock()
		return
	}
	r.enterGateLocked()
	r.rt.Unlock()
	defer r.leaveGate()
	if !r.quiesce("migrate") {
		r.trace.Record("order", obs.KindCheckpoint, "migrate", strconv.FormatUint(seq, 10)+"/busy")
		return
	}
	if needCut {
		r.performCut(m, seq)
	}
	if needInstall {
		r.performInstalls(m, seq)
	}
}

// performCut exports every outgoing move at this quiesced position: the
// moved keys leave the state, their reply-cache entries ride along, and
// the chunks enter each target's total order. Failures (a state whose
// export breaks) are deterministic — every replica fails the same way and
// the fence never passes, surfacing the error at the orchestrator.
func (r *Replica) performCut(m *migration, seq uint64) {
	ks := r.state.(KeyedSnapshotter) // checked at prepare
	object := m.next.Table.Object
	for _, mv := range m.outgoing {
		mv := mv
		exported, err := ks.ExportKeys(func(key string) bool {
			got, moved := m.plan.MoveOf(key)
			return moved && got == mv
		})
		if err != nil {
			return
		}
		keys := make([]string, 0, len(exported))
		for k := range exported {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		cache := r.movedCacheEntries(mv)
		if err := ks.DropKeys(keys); err != nil {
			return
		}
		chunks := shard.Chunks(keys, shard.DefaultChunkKeys)
		for i, chunkKeys := range chunks {
			ck := MigrateChunk{
				Object: object,
				Epoch:  m.next.Table.Epoch,
				Source: r.group,
				Target: mv.Target,
				Index:  i,
				Count:  len(chunks),
				Cut:    seq,
			}
			for _, k := range chunkKeys {
				ck.Keys = append(ck.Keys, KeyState{Key: k, Data: exported[k]})
			}
			if i == 0 {
				ck.Cache = cache
			}
			r.submitTo(mv.Target, chunkID(object, ck.Epoch, r.group, mv.Target, i), ck)
			r.migChunksSent.Inc()
		}
		r.migKeysMoved.Add(uint64(len(keys)))
	}
	m.cutDone = true
	m.cutSeq = seq
	r.trace.Record("order", obs.KindCheckpoint, "migrate-cut", strconv.FormatUint(seq, 10))
}

// movedCacheEntries collects the replies the at-most-once table holds for
// keys riding a move, in the table's deterministic order.
func (r *Replica) movedCacheEntries(mv shard.Move) []CacheEntry {
	r.rt.Lock()
	defer r.rt.Unlock()
	var out []CacheEntry
	for _, s := range r.seenEntriesLocked() {
		e := &s.Entry
		if e.Key == "" || !e.Done {
			continue
		}
		if got, moved := r.mig.plan.MoveOf(e.Key); moved && got == mv {
			out = append(out, CacheEntry{ID: s.Ref.ID, Key: e.Key, Reply: r.reply(s.Ref.ID, e), Client: s.Ref.Client, Call: s.Ref.Call})
		}
	}
	return out
}

// performInstalls folds buffered chunks into the state, in index order
// per stream, and flushes the stream's parked requests once it completes.
func (r *Replica) performInstalls(m *migration, seq uint64) {
	ks := r.state.(KeyedSnapshotter) // checked at prepare
	for _, mv := range m.plan.Incoming(r.group) {
		s := m.incoming[mv.Source]
		if s == nil || s.done {
			continue
		}
		for {
			ck, ok := s.buffered[s.next]
			if !ok {
				break
			}
			if len(ck.Keys) > 0 {
				kv := make(map[string][]byte, len(ck.Keys))
				for _, k := range ck.Keys {
					kv[k.Key] = k.Data
				}
				if err := ks.InstallKeys(kv); err != nil {
					return // deterministic failure: fence never passes
				}
			}
			r.rt.Lock()
			for _, ce := range ck.Cache {
				ref := callRef{ce.ID, ce.Client, ce.Call}
				if verdict, _ := r.classifyLocked(ref); verdict != amoFresh {
					continue // seen here, or superseded here: at-most-once wins
				}
				r.enterLocked(ref, seq, ce.Key)
				r.storeReplyLocked(ref, ce.Reply)
			}
			delete(s.buffered, s.next)
			s.next++
			r.rt.Unlock()
			r.migChunksInstalled.Inc()
			r.trace.Record("order", obs.KindCheckpoint, shard.InstallMethod,
				strconv.FormatUint(seq, 10)+"/"+string(ck.Source)+"/"+strconv.Itoa(ck.Index))
		}
		if s.count > 0 && s.next >= s.count {
			s.done = true
			parked := s.parked
			s.parked = nil
			r.migParked.Add(-int64(len(parked)))
			for _, d := range parked {
				r.rt.Lock()
				if r.stopped {
					r.rt.Unlock()
					break
				}
				r.admit(d)
			}
		}
	}
}

// executeForward is the dual-home relay of an old-epoch request whose key
// has left with the cut: the scheduler thread performs a nested invocation
// of the key's home under the next epoch (inv.epoch), stamped with it, and
// relays the ordered reply to the caller. The nested id derives
// deterministically from the original request, so every source replica
// submits the same invocation and gcs dedup executes it exactly once at
// the target.
func (r *Replica) executeForward(inv *Invocation) {
	req := &inv.req
	reply := r.newReply(req)
	var err error
	reply.Result, err = inv.invoke(Request{Group: inv.epoch.Ring.HomeGroup(req.ShardKey), Method: req.Method, Args: req.Args,
		ShardEpoch: inv.epoch.Table.Epoch, ShardKey: req.ShardKey, CrossKeys: req.CrossKeys})
	if err != nil {
		reply.Err = err.Error()
		if hasCode(err, CodeRedirect) {
			// The new home bounced the relayed request (e.g. it is mid-
			// failover on yet another transition). The verdict is the
			// runtime's own, handed up by invoke: pass it on so the router
			// retries instead of failing terminally.
			reply.Code = CodeRedirect
			reply.ShardEpoch = inv.epoch.Table.Epoch
		}
	}
	r.complete(req, reply)
}
