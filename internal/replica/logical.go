package replica

import (
	"slices"

	"github.com/replobj/replobj/internal/adets"
	"github.com/replobj/replobj/internal/wire"
)

// The logical thread (paper Section 3.1): callback detection, callbacks
// deferred behind a lagging originator, nested calls and replies that reach
// the order before their call, as one record per logical thread changed by
// five transitions under the runtime lock — arrive (admit), leave
// (complete), enterNested and exitNested (Invoke), deliverReply (the ordered
// reply). A record exists if and only if a request of its logical thread is
// admitted here and not complete; everything in it goes with its last
// request. A nested reply is ordered after the request whose call produced
// it, and that request is admitted at the same position on every replica,
// so a reply for a logical thread without a record is a late duplicate.

// logicalThread is the record. Replica.threads holds it by value, within
// 128 bytes, so that the map keeps it in its buckets.
type logicalThread struct {
	live    int32 // requests admitted here and not complete
	nesting int32 // local threads inside Invoke
	// deferred are callbacks admitted while nesting was 0: run before the
	// originator reaches its Invoke here (it lags structurally, e.g. an LSA
	// follower waiting for a mutex-table grant), one would execute later code
	// of the logical thread before earlier code.
	deferred []*dispatched
	// calls are the nested calls in flight; one with a reply and no thread
	// is an early reply.
	calls []nestedCall
}

// nestedCall is the call whose InvocationID.Seq is seq.
type nestedCall struct {
	seq    uint64
	thread *adets.Thread
	reply  *Reply
}

func (th *logicalThread) call(seq uint64) int {
	return slices.IndexFunc(th.calls, func(c nestedCall) bool { return c.seq == seq })
}

// arriveLocked enters an admitted request in its record: a callback if its
// logical thread is live here, deferred if the originator is not inside
// Invoke either. A deferred callback waits off the ordered stream (seq 0),
// so no scheduler keys a decision on a position it does not run at.
func (r *Replica) arriveLocked(d *dispatched) (callback, deferred bool) {
	l := d.inv.req.Logical()
	th := r.threads[l]
	callback = th.live > 0
	th.live++
	if deferred = callback && th.nesting == 0; deferred {
		d.seq = 0
		th.deferred = append(th.deferred, d)
	}
	r.threads[l] = th
	return callback, deferred
}

// leaveLocked takes a complete request out of its record; the last one
// deletes it and unbinds the logical thread's spans.
func (r *Replica) leaveLocked(req *Request) {
	l := req.Logical()
	th := r.threads[l]
	if th.live--; th.live > 0 {
		r.threads[l] = th
		return
	}
	delete(r.threads, l)
	if r.spans != nil && req.Trace.Valid() {
		r.spans.Unbind(string(l))
	}
}

// enterNestedLocked registers thread t's nested call id. The originator is
// at its Invoke now: it takes the deferred callbacks, to submit in arrival
// order, and the call's reply if that came early.
func (r *Replica) enterNestedLocked(id wire.InvocationID, t *adets.Thread) (flush []*dispatched, early *Reply) {
	th := r.threads[id.Logical]
	th.nesting++
	flush, th.deferred = th.deferred, nil
	if i := th.call(id.Seq); i >= 0 {
		th.calls[i].thread, early = t, th.calls[i].reply
	} else {
		th.calls = append(th.calls, nestedCall{seq: id.Seq, thread: t})
	}
	r.threads[id.Logical] = th
	return flush, early
}

// exitNestedLocked ends the nested call id and returns its reply, nil for a
// thread woken without one (the replica stopped).
func (r *Replica) exitNestedLocked(id wire.InvocationID) (reply *Reply) {
	th := r.threads[id.Logical]
	if i := th.call(id.Seq); i >= 0 {
		reply = th.calls[i].reply
		th.calls = slices.Delete(th.calls, i, i+1)
	}
	th.nesting--
	if th.live > 0 {
		r.threads[id.Logical] = th
	} else {
		delete(r.threads, id.Logical) // a snapshot install reset its requests
	}
	return reply
}

// deliverReplyLocked files an ordered nested reply and returns the thread it
// resumes, if one waits. A reply ahead of its call is kept as early; a second
// copy, or a reply for a logical thread without a record, is dropped.
func (r *Replica) deliverReplyLocked(reply Reply) *adets.Thread {
	th, ok := r.threads[reply.ID.Logical]
	if !ok {
		return nil
	}
	i := th.call(reply.ID.Seq)
	if i < 0 {
		th.calls = append(th.calls, nestedCall{seq: reply.ID.Seq, reply: &reply})
		r.threads[reply.ID.Logical] = th
		return nil
	}
	if c := &th.calls[i]; c.reply == nil {
		c.reply = &reply
		return c.thread
	}
	return nil
}
