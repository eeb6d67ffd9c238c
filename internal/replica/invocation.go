package replica

import (
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/replobj/replobj/internal/adets"
	"github.com/replobj/replobj/internal/wire"
)

// ErrStopped is returned for operations on a stopped replica.
var ErrStopped = errors.New("replica: stopped")

// Invocation is the execution context of one method invocation — the Go
// counterpart of the paper's transformed synchronization operations: every
// lock, condition-variable and nested-invocation operation is routed
// through the deterministic scheduler.
//
// An Invocation is valid only until its handler returns, and the handler
// must not keep it, nor hand it to a goroutine that outlives the call: the
// replica reuses the memory for a later request, so a kept Invocation
// reads another request's method, arguments and thread.
type Invocation struct {
	r   *Replica
	t   *adets.Thread
	req Request
	// The two counters share a word so that a dispatched stays in its size
	// class (one invocation makes far fewer than 2^32 nested calls).
	nestedSeq uint32
	anonSeq   uint32
}

// Args returns the marshalled invocation arguments. They are the
// handler's to read, never to write: arguments of up to 512 bytes that
// came over TCP are carved from a chunk of at most 4 KiB the connection's
// decoder shares among the requests it read, so a handler that keeps
// them past its return (in the object's state, say) copies what it keeps,
// as a store's put does, or it pins that chunk. A result may still be a
// slice of them: the replica keeps a client's last reply, not the chunk's
// other requests.
func (inv *Invocation) Args() []byte { return inv.req.Args }

// State returns this replica's private object state (see Config.State).
func (inv *Invocation) State() any { return inv.r.state }

// Method returns the invoked method name.
func (inv *Invocation) Method() string { return inv.req.Method }

// Logical returns the text of this invocation chain's logical thread id,
// "<client>#<call>" for a chain a client's call started. It is built on
// every call.
func (inv *Invocation) Logical() wire.LogicalID { return inv.req.Logical() }

// Replica returns the executing replica's node id (diagnostics only; do
// not branch behaviour on it, or replicas diverge).
func (inv *Invocation) Replica() wire.NodeID { return inv.r.self }

// Lock acquires the named reentrant mutex through the scheduler.
func (inv *Invocation) Lock(m adets.MutexID) error {
	return inv.r.reent.Lock(inv.t, m)
}

// Unlock releases one hold of m.
func (inv *Invocation) Unlock(m adets.MutexID) error {
	return inv.r.reent.Unlock(inv.t, m)
}

// NewMutex creates an anonymous mutex with a replica-deterministic identity
// derived from the creating logical thread and a per-invocation counter —
// the dynamic mutex IDs of ADETS-LSA (paper Section 4.1) generalized to all
// schedulers.
func (inv *Invocation) NewMutex() adets.MutexID {
	inv.anonSeq++
	return adets.MutexID(fmt.Sprintf("anon/%s/%d", inv.req.ID, inv.anonSeq))
}

// Wait waits on m's condition variable c (empty c = the mutex's implicit
// Java-style condition variable); d > 0 bounds the wait and the result
// reports whether the deterministic timeout fired.
func (inv *Invocation) Wait(m adets.MutexID, c adets.CondID, d time.Duration) (timedOut bool, err error) {
	return inv.r.reent.Wait(inv.t, m, c, d)
}

// Notify wakes the deterministically-first waiter of (m, c).
func (inv *Invocation) Notify(m adets.MutexID, c adets.CondID) error {
	return inv.r.reent.Notify(inv.t, m, c)
}

// NotifyAll wakes all waiters of (m, c).
func (inv *Invocation) NotifyAll(m adets.MutexID, c adets.CondID) error {
	return inv.r.reent.NotifyAll(inv.t, m, c)
}

// Yield offers the scheduler a voluntary scheduling point (ADETS-MAT's
// remedy for trailing computations, paper Section 5.3).
func (inv *Invocation) Yield() {
	inv.r.sched.Yield(inv.t)
}

// DeclareNoMoreLocks tells a prediction-capable scheduler (ADETS-MAT) that
// this invocation will acquire no further mutexes — the explicit-API form
// of the paper's synchronization-prediction follow-up work. Under other
// schedulers it is a no-op. A later Lock fails with
// adets.ErrLockAfterDeclaration.
func (inv *Invocation) DeclareNoMoreLocks() {
	if lp, ok := inv.r.sched.(adets.LockPredictor); ok {
		lp.NoMoreLocks(inv.t)
	}
}

// Now returns the current time of the replica's runtime (virtual time
// under simulation, wall clock in real deployments).
func (inv *Invocation) Now() time.Duration { return inv.r.rt.Now() }

// Compute simulates local computation taking d, exactly as the paper's
// benchmarks do: the request-handler thread suspends for the duration,
// freeing the (virtual) CPU. Under vtime.Real it is a plain sleep; real
// computations can simply be executed inline instead.
func (inv *Invocation) Compute(d time.Duration) { inv.r.rt.Sleep(d) }

// ShardKey returns the key class this request was routed by (empty for
// unrouted traffic and unsharded groups).
func (inv *Invocation) ShardKey() string { return inv.req.ShardKey }

// ShardHome returns the shard group a key class is homed on under the
// group's routing table. The result is a pure function of (table, key), so
// every replica resolves the same home.
func (inv *Invocation) ShardHome(key string) (wire.GroupID, error) {
	if inv.r.shard == nil {
		return "", errors.New("replica: ShardHome on an unsharded group")
	}
	return inv.r.shard.HomeGroup(key), nil
}

// InvokeShard performs a nested invocation on the shard group owning key,
// under the group's routing table — the cross-shard path. The nested
// request is ordered in the target group (validated there against the same
// table), its reply is ordered back into this group's stream, and the
// resume position is the deterministic merge point: identical on every
// replica of both groups. A key homed on this very group loops through the
// same ordered nested path, which is legal but wasteful — co-homed keys
// should be accessed directly under a scheduler lock instead.
func (inv *Invocation) InvokeShard(key, method string, args []byte) ([]byte, error) {
	if inv.r.shard == nil {
		return nil, errors.New("replica: InvokeShard on an unsharded group")
	}
	return inv.invoke(Request{Group: inv.r.shard.HomeGroup(key), Method: method, Args: args, ShardKey: key})
}

// Invoke performs a nested invocation of another replicated object. The
// request carries this chain's logical thread, so the target detects
// callbacks; the reply is delivered through this group's total order and
// resumes the thread at the same position on every replica.
//
// A nested call's id is derived from its invocation's, so that every
// replica mints the same one: Seq*1000 + n for the n-th call. One
// invocation may therefore make at most 1000 nested calls, and a chain of
// them only as deep as its ids fit in 64 bits: six levels below a client's
// request always, the seventh only while the call numbers stay small. A
// call past either limit is refused with an *Error, identically on every
// replica, and is not sent.
func (inv *Invocation) Invoke(group wire.GroupID, method string, args []byte) ([]byte, error) {
	return inv.invoke(Request{Group: group, Method: method, Args: args})
}

// maxNestedCalls bounds the nested calls of one invocation (see Invoke).
const maxNestedCalls = 1000

// invoke sends req, addressed and filled in by the caller, as this
// invocation's next nested call and waits for its ordered reply.
func (inv *Invocation) invoke(req Request) ([]byte, error) {
	n, parent := uint64(inv.nestedSeq)+1, inv.req.ID.Seq
	if n > maxNestedCalls || parent > (math.MaxUint64-n)/maxNestedCalls {
		return nil, &Error{Msg: fmt.Sprintf("replica: nested call %d of %s has no unique id (at most %d per invocation, ids of 64 bits)",
			n, inv.req.ID, maxNestedCalls)}
	}
	inv.nestedSeq++
	id := inv.req.ID // the nested call runs on its caller's logical thread
	id.Seq = parent*maxNestedCalls + n
	req.ID, req.Kind, req.Origin, req.Trace = id, KindNested, inv.r.group, inv.req.Trace
	r := inv.r
	r.rt.Lock()
	if r.stopped {
		r.rt.Unlock()
		return nil, ErrStopped
	}
	flush, early := r.enterNestedLocked(id, inv.t)
	r.rt.Unlock()

	for _, cb := range flush {
		r.submit(cb, true)
	}
	if early == nil {
		r.submitTo(req.Group, id.String(), &req)
	} else {
		// The reply raced ahead of this thread (it lagged structurally);
		// deposit the resume so BeginNested returns immediately.
		r.sched.EndNested(inv.t)
	}
	r.sched.BeginNested(inv.t) // blocks until the ordered reply resumes us

	r.rt.Lock()
	reply := r.exitNestedLocked(id)
	stopped := r.stopped
	r.rt.Unlock()
	if reply == nil {
		if stopped {
			return nil, ErrStopped
		}
		return nil, errors.New("replica: nested invocation resumed without reply")
	}
	return reply.Result, reply.Failure()
}
