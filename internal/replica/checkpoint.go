package replica

import (
	"bytes"
	"cmp"
	"encoding/gob"
	"slices"
	"strconv"

	"github.com/replobj/replobj/internal/gcs"
	"github.com/replobj/replobj/internal/obs"
	"github.com/replobj/replobj/internal/ring"
	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

// Deterministic checkpointing and snapshot-based state transfer.
//
// With Config.CheckpointEvery set, every replica pauses at the same
// positions of the totally-ordered stream, quiesces its scheduler, and
// serializes (object state, reply cache, trace digests) into a snapshot
// envelope handed to the group member. The member truncates its
// retransmission log up to the checkpoint (bounded by the group-wide
// stability watermark) and answers NACKs for truncated positions with the
// snapshot instead — so a replica that rejoins after the log has moved past
// its position is restored by state transfer rather than replay.

// Snapshotter is implemented by object states that support checkpointing
// with an explicit serialization. States that do not implement it are
// checkpointed with encoding/gob, which requires a pointer state with
// exported fields; when neither works the checkpoint is skipped (the same
// way on every replica) and the log falls back to the retention cap.
type Snapshotter interface {
	// Snapshot serializes the state. It is called only with no request
	// threads live — at a quiesced checkpoint boundary, or for a speculation's
	// image — and never while another Snapshot or Restore of the state runs.
	Snapshot() ([]byte, error)
	// Restore replaces the state with a previously snapshotted image.
	Restore(data []byte) error
}

// seenEntry is one row of the at-most-once table as a checkpoint carries
// it.
type seenEntry struct {
	Ref   callRef
	Entry amoEntry
}

// snapshotEnvelope is the serialized form of a checkpoint: everything a
// rejoiner needs to resume as if it had delivered the whole prefix itself.
type snapshotEnvelope struct {
	Seq     uint64
	State   []byte
	UsedGob bool
	Entries []seenEntry
	Streams map[string]obs.StreamState
}

// checkpoint runs at a checkpoint boundary (stream position seq, the
// delivery just dispatched). It quiesces the scheduler — waiting until all
// request threads have drained or are provably blocked on future
// deliveries — and in the drained case evicts stable reply-cache entries,
// records the boundary in the trace, and hands the serialized snapshot to
// the group member. When threads are still live the boundary is skipped;
// the quiescence verdict is a deterministic function of the stream, so
// every replica records the same event (checkpoint or skip marker) and any
// disagreement surfaces as a digest divergence.
func (r *Replica) checkpoint(seq uint64) {
	start := r.rt.Now()
	if !r.quiesce("ckpt") {
		r.ckptSkipped.Inc()
		r.trace.Record("order", obs.KindCheckpoint, "ckpt", strconv.FormatUint(seq, 10)+"/skip")
		return
	}
	r.rt.Lock()
	r.enterGateLocked()
	r.evictStableLocked(seq)
	entries, heldBytes := r.seenEntriesLocked(), r.heldBytes
	r.rt.Unlock()
	// Record before exporting: the envelope's digest state must include the
	// checkpoint event itself, so a replica restored from this snapshot
	// continues with digests identical to the donors'.
	r.trace.Record("order", obs.KindCheckpoint, "ckpt", strconv.FormatUint(seq, 10))
	state, usedGob, err := r.snapshotState()
	r.leaveGate()
	if err != nil {
		// Same state type on every replica, so the failure (e.g. gob meeting
		// unexported fields) is deterministic: nobody records a checkpoint
		// and the log stays bounded only by the retention cap.
		return
	}
	env := snapshotEnvelope{
		Seq:     seq,
		State:   state,
		UsedGob: usedGob,
		Entries: entries,
		Streams: r.trace.ExportStreams(),
	}
	// Sized up front: grown by doubling, a multi-megabyte envelope leaves
	// several times its size in dead buffers for the collector.
	buf := bytes.NewBuffer(make([]byte, 0, len(state)+heldBytes+64*len(entries)+4096))
	if err := gob.NewEncoder(buf).Encode(env); err != nil {
		return
	}
	data := buf.Bytes()
	r.member.SetCheckpoint(seq, data)
	r.checkpoints.Inc()
	r.snapSize.Set(int64(len(data)))
	r.ckptDuration.ObserveDuration(r.rt.Now() - start)
}

// quiesce waits for the scheduler's quiescence verdict at this position of
// the stream: true when every request thread has drained, false when some
// are still live. role names the wait.
func (r *Replica) quiesce(role string) bool {
	p := vtime.NewParker(role + "/" + string(r.self))
	drained := false
	r.sched.Quiesce(func(d bool) {
		drained = d
		r.rt.Unpark(p)
	})
	r.rt.Lock()
	r.rt.Park(p)
	r.rt.Unlock()
	return drained
}

// snapshotState serializes the object state: Snapshotter when implemented,
// gob otherwise (nil state yields a nil image).
func (r *Replica) snapshotState() (data []byte, usedGob bool, err error) {
	switch s := r.state.(type) {
	case nil:
		return nil, false, nil
	case Snapshotter:
		data, err = s.Snapshot()
		return data, false, err
	default:
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(r.state); err != nil {
			return nil, true, err
		}
		return buf.Bytes(), true, nil
	}
}

// restoreInto replaces the contents of state st with an image produced by
// snapshotState.
func restoreInto(st any, data []byte, usedGob bool) error {
	if s, ok := st.(Snapshotter); ok && !usedGob {
		return s.Restore(data)
	}
	return gob.NewDecoder(bytes.NewReader(data)).Decode(st)
}

// evictStableLocked drops the rows that have aged out of the
// duplicate-detection window: everything entered at or below seq minus two
// checkpoint intervals — a client that has been idle that long, an id that
// old. The boundary is a pure function of the ordered stream — unlike the
// gcs stability watermark, which depends on failure-detector timing — so
// every replica evicts the same rows at the same position and duplicate
// classification never diverges. Entries still executing (no cached reply
// yet) are always retained, and so is the id window behind one.
func (r *Replica) evictStableLocked(seq uint64) {
	window := 2 * r.ckptEvery
	if seq <= window {
		return
	}
	floor := seq - window
	// Remember the eviction floor: a retransmission ordered at or below it
	// whose entry is gone can no longer be answered from the reply cache —
	// the duplicate hook returns a typed expired-duplicate error instead.
	r.evictFloor = floor
	for name, row := range r.clients {
		if row.Entry.At <= floor && row.Entry.Done {
			r.forgetClientLocked(name)
		}
	}
	for r.amoOrder.Len() > 0 {
		id := *r.amoOrder.At(0)
		if e := r.amo[id]; e.At > floor || !e.Done {
			break
		}
		r.amoOrder.Pop()
		r.forgetLocked(id)
	}
	r.exportTableLocked()
}

// seenEntriesLocked copies the at-most-once table for the envelope in a
// deterministic order: the ids as first seen, then the
// clients' rows by stream position, rows installed at one position by name.
func (r *Replica) seenEntriesLocked() []seenEntry {
	entries := make([]seenEntry, 0, r.amoOrder.Len()+len(r.clients))
	for id := range r.amoOrder.All() {
		entries = append(entries, seenEntry{callRef{ID: id}, r.amo[id]})
	}
	for name, row := range r.clients {
		entries = append(entries, seenEntry{callRef{row.ID, name, row.Call}, row.Entry})
	}
	slices.SortFunc(entries[r.amoOrder.Len():], func(a, b seenEntry) int {
		return cmp.Or(cmp.Compare(a.Entry.At, b.Entry.At), cmp.Compare(a.Ref.Client, b.Ref.Client))
	})
	return entries
}

// installSnapshot restores this replica from a checkpoint delivered in
// place of a truncated tail. The group member has already repositioned the
// delivery frontier at d.Seq+1; here the object state, the reply cache and
// the trace digests are reset to the donor's exact position. Checkpoints
// are only taken fully drained, so the donor had no live threads — local
// nested-invocation bookkeeping (necessarily stale) is cleared outright.
func (r *Replica) installSnapshot(d gcs.Delivery) {
	var env snapshotEnvelope
	if err := gob.NewDecoder(bytes.NewReader(d.Snapshot)).Decode(&env); err != nil {
		// The member has already moved the delivery frontier past the
		// snapshot, so this replica's state now lacks that prefix. Say so
		// where it is looked for: in the count, and in the order digest,
		// which from here on differs from every peer's.
		r.snapErrors.Inc()
		r.trace.Record("order", obs.KindCheckpoint, "snapshot-install-failed", strconv.FormatUint(d.Seq, 10))
		return
	}
	r.rt.Lock()
	r.enterGateLocked()
	r.rt.Unlock()
	if len(env.State) > 0 && r.state != nil {
		_ = restoreInto(r.state, env.State, env.UsedGob) // same type, same image: it fails alike everywhere
	}
	r.rt.Lock()
	r.gateBusy = false
	r.clients = make(map[wire.NodeID]*clientRow)
	r.amo = make(map[wire.InvocationID]amoEntry)
	r.amoOrder = ring.Queue[wire.InvocationID]{}
	r.held, r.heldBytes = 0, 0
	for _, e := range env.Entries {
		if e.Ref.Call != 0 {
			r.clients[e.Ref.Client] = &clientRow{e.Ref.Call, e.Ref.ID, e.Entry}
		} else {
			r.amo[e.Ref.ID] = e.Entry
			r.amoOrder.Push(e.Ref.ID)
		}
		r.countHeldLocked(&e.Entry, +1)
	}
	r.exportTableLocked()
	r.threads = make(map[wire.LogicalID]logicalThread)
	if r.specMgr != nil {
		// The primary state was rewritten wholesale: no fork taken before
		// this point can be valid.
		r.specMgr.Reset(env.Seq)
	}
	r.rt.Unlock()
	r.trace.RestoreStreams(env.Streams)
}

// CacheSize returns the number of replies the at-most-once table holds
// (tests, bench reporter).
func (r *Replica) CacheSize() int {
	r.rt.Lock()
	defer r.rt.Unlock()
	return r.held
}
