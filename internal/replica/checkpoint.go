package replica

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strconv"

	"github.com/replobj/replobj/internal/gcs"
	"github.com/replobj/replobj/internal/obs"
	"github.com/replobj/replobj/internal/obs/tracing"
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

// Snapshotter is the only way an object state is imaged, for a checkpoint:
// a group that checkpoints refuses a state without it. Equal states must
// give equal bytes (a map goes in key order, say), so that replicas cut at
// one position write one image.
type Snapshotter interface {
	// Snapshot serializes the state. It is called only with no request
	// threads live, at a quiesced checkpoint boundary, and never while
	// another Snapshot or Restore of the state runs: the dispatch goroutine
	// makes both calls, one at a time.
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
// rejoiner needs to resume as if it had delivered the whole prefix itself,
// in the wire codec's primitives and one canonical form: entries in
// seenEntriesLocked's order, streams by name (the decoder refuses any other).
//
//	Envelope := Seq State n×(ID Client At Result Err TraceID Span Code Done)
//	ID       := Logical Call Seq
//	            m×(Name Count Digest)
type snapshotEnvelope struct {
	Seq     uint64
	State   []byte
	Entries []seenEntry
	Streams map[string]obs.StreamState
}

var (
	errBadEnvelope  = errors.New("replica: undecodable snapshot envelope") // decodeEnvelope's errors wrap it
	errStreamsOrder = errors.New("replica: snapshot streams out of order")
)

func (e *snapshotEnvelope) encode(dst []byte) []byte {
	return wire.Append(dst, func(b *wire.Buffer) {
		b.Uvarint(e.Seq)
		b.Bytes(e.State)
		b.Uvarint(uint64(len(e.Entries)))
		for _, s := range e.Entries {
			encInvocationID(b, s.Ref.ID)
			b.String(string(s.Ref.Client))
			b.Uvarint(s.Entry.At)
			b.Bytes(s.Entry.Result)
			b.String(s.Entry.Err)
			encTrace(b, s.Entry.Trace)
			b.Byte(byte(s.Entry.Code))
			b.Bool(s.Entry.Done)
		}
		names := slices.Sorted(maps.Keys(e.Streams))
		b.Uvarint(uint64(len(names)))
		for _, name := range names {
			b.String(name)
			b.Uvarint(e.Streams[name].Count)
			b.Uvarint(e.Streams[name].Digest)
		}
	})
}

// decodeEnvelope reads an envelope encode wrote, and nothing else.
func decodeEnvelope(data []byte) (e snapshotEnvelope, err error) {
	err = wire.Decode(data, func(r *wire.Reader) {
		e.Seq, e.State = r.Uvarint(), r.Bytes()
		// An entry's least size: its eleven fields, a byte each.
		e.Entries = wire.Elems(r, "entry", 11, func(r *wire.Reader) seenEntry {
			return seenEntry{
				callRef{decInvocationID(r), wire.NodeID(r.String())},
				amoEntry{At: r.Uvarint(), Result: r.Bytes(), Err: r.String(),
					Trace: tracing.Context{TraceID: r.Uvarint(), Span: r.Uvarint()}, Code: Code(r.Byte()), Done: r.Bool()},
			}
		})
		// A stream is a name and two varints. The map grows as they decode:
		// sized by the count, it would be many times the bytes they take.
		n := r.Count("stream", 3)
		e.Streams = make(map[string]obs.StreamState)
		for i, prev := 0, ""; i < n; i++ {
			name := r.String()
			if i > 0 && name <= prev {
				r.Fail(errStreamsOrder)
			}
			e.Streams[name], prev = obs.StreamState{Count: r.Uvarint(), Digest: r.Uvarint()}, name
		}
	})
	if err != nil {
		err = fmt.Errorf("%w: %w", errBadEnvelope, err)
	}
	return e, err
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
	r.evictStableLocked(seq)
	entries, heldBytes := r.seenEntriesLocked(), r.heldBytes
	r.rt.Unlock()
	// Record before exporting: the envelope's digest state must include the
	// checkpoint event itself, so a replica restored from this snapshot
	// continues with digests identical to the donors'.
	r.trace.Record("order", obs.KindCheckpoint, "ckpt", strconv.FormatUint(seq, 10))
	state, err := r.snapshotState()
	if err != nil {
		// Marked on the order stream: a failure here alone parts the digests.
		r.ckptSkipped.Inc()
		r.trace.Record("order", obs.KindCheckpoint, "ckpt", strconv.FormatUint(seq, 10)+"/snapshot-failed")
		return
	}
	env := snapshotEnvelope{Seq: seq, State: state, Entries: entries, Streams: r.trace.ExportStreams()}
	// Sized up front: grown by doubling, a multi-megabyte envelope leaves
	// several times its size in dead buffers for the collector.
	data := env.encode(make([]byte, 0, len(state)+heldBytes+64*len(entries)+4096))
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

// snapshotState images the object state; a state-less replica's is empty.
func (r *Replica) snapshotState() ([]byte, error) {
	switch s := r.state.(type) {
	case nil:
		return nil, nil
	case Snapshotter:
		return s.Snapshot()
	}
	return nil, fmt.Errorf("replica: state %T is not a Snapshotter", r.state)
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
		entries = append(entries, seenEntry{callRef{row.ID, name}, row.Entry})
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
	env, err := decodeEnvelope(d.Snapshot)
	if s, ok := r.state.(Snapshotter); ok && err == nil {
		err = s.Restore(env.State)
	}
	if err != nil {
		// The member has already moved the delivery frontier past the
		// snapshot, so this replica's state now lacks that prefix. Say so
		// where it is looked for: in the count, and in the order digest,
		// which from here on differs from every peer's.
		r.snapErrors.Inc()
		r.trace.Record("order", obs.KindCheckpoint, "snapshot-install-failed", strconv.FormatUint(d.Seq, 10))
		return
	}
	r.rt.Lock()
	r.clients = make(map[wire.NodeID]*clientRow)
	r.amo = make(map[wire.InvocationID]amoEntry)
	r.amoOrder = ring.Queue[wire.InvocationID]{}
	r.held, r.heldBytes = 0, 0
	for _, e := range env.Entries {
		if e.Ref.Client != "" {
			r.clients[e.Ref.Client] = &clientRow{e.Ref.ID, e.Entry}
		} else {
			r.amo[e.Ref.ID] = e.Entry
			r.amoOrder.Push(e.Ref.ID)
		}
		r.countHeldLocked(&e.Entry, +1)
	}
	r.exportTableLocked()
	r.threads = make(map[wire.ThreadID]logicalThread)
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
