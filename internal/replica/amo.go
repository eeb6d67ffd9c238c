package replica

import (
	"github.com/replobj/replobj/internal/obs/tracing"
	"github.com/replobj/replobj/internal/wire"
)

// At-most-once in O(clients). A Client has one call outstanding at a time
// and numbers its calls (Request.Call), so of everything a client ever sent
// only its latest call can still be retransmitted: the replica keeps one row
// per client — that call's number, position and, once done, reply — and the
// number alone says of any other copy that it is older. Requests without a
// number (nested invocations, hand-built ones) are remembered by id in a window of the last maxSeen. Every change is made at
// an ordered position under the runtime lock, so the table is a pure
// function of the stream: every replica keeps the same rows.

const maxSeen = 1 << 14

// amoEntry is what the replica remembers of one request it has ordered: its
// position and, once done, its reply less the id and sender.
type amoEntry struct {
	At     uint64
	Result []byte
	Err    string
	Trace  tracing.Context
	Code   Code
	Done   bool
}

// clientRow is a client's latest call. Entering the next one overwrites it:
// the reply is given up at that ordered position, executed here yet or not.
type clientRow struct {
	Call  uint64
	ID    wire.InvocationID
	Entry amoEntry
}

// callRef names a request in the table: the Call-th invocation of Client
// when numbered, the id otherwise (Call 0).
type callRef struct {
	ID     wire.InvocationID
	Client wire.NodeID
	Call   uint64
}

func (req *Request) ref() callRef {
	if req.Kind != KindClient || req.Call == 0 {
		return callRef{ID: req.ID}
	}
	return callRef{req.ID, req.ReplyTo, req.Call}
}

// amoVerdict classifies a request against the table: amoFresh is to be
// entered and run; amoDuplicate is the remembered request itself, answered
// from its entry or not at all while it executes; amoExpired is older than
// its client's latest call and never runs — not again, and not for the first
// time either if its client gave up on it and a later call was ordered first.
type amoVerdict uint8

const (
	amoFresh amoVerdict = iota
	amoDuplicate
	amoExpired
)

// classifyLocked is the three-way comparison dispatch, the duplicate-submit
// hook and speculation decide by. The entry is the
// remembered request's (amoDuplicate) or the superseding call's (amoExpired).
func (r *Replica) classifyLocked(c callRef) (amoVerdict, amoEntry) {
	if c.Call == 0 {
		if e, seen := r.amo[c.ID]; seen {
			return amoDuplicate, e
		}
		return amoFresh, amoEntry{}
	}
	row := r.clients[c.Client]
	switch {
	case row == nil || c.Call > row.Call:
		return amoFresh, amoEntry{}
	case c.Call == row.Call:
		return amoDuplicate, row.Entry
	}
	return amoExpired, row.Entry
}

// enterLocked remembers a fresh request at stream position seq. Rows beyond
// maxSeen go oldest first: ids in arrival order, clients by position (then
// name), so every replica drops the same one.
func (r *Replica) enterLocked(c callRef, seq uint64) {
	if c.Call == 0 {
		r.amo[c.ID] = amoEntry{At: seq}
		r.amoOrder.Push(c.ID)
		if r.amoOrder.Len() > maxSeen {
			old, _ := r.amoOrder.Pop()
			r.forgetLocked(old)
		}
		r.exportTableLocked()
		return
	}
	row := r.clients[c.Client]
	if row == nil {
		if len(r.clients) >= maxSeen {
			var oldest wire.NodeID
			var o *clientRow
			for name, x := range r.clients {
				if o == nil || x.Entry.At < o.Entry.At || x.Entry.At == o.Entry.At && name < oldest {
					oldest, o = name, x
				}
			}
			r.forgetClientLocked(oldest)
		}
		row = new(clientRow)
		r.clients[c.Client] = row
	}
	r.countHeldLocked(&row.Entry, -1)
	*row = clientRow{c.Call, c.ID, amoEntry{At: seq}}
	r.exportTableLocked()
}

// storeReplyLocked records the outcome of a request if the table still
// remembers it: a completion whose call its client has since superseded
// stores nothing.
func (r *Replica) storeReplyLocked(c callRef, reply Reply) {
	if c.Call != 0 {
		if row := r.clients[c.Client]; row != nil && row.Call == c.Call {
			r.fillLocked(&row.Entry, reply)
		}
	} else if e, ok := r.amo[c.ID]; ok {
		r.fillLocked(&e, reply)
		r.amo[c.ID] = e
	}
}

// fillLocked completes e with reply, once.
func (r *Replica) fillLocked(e *amoEntry, reply Reply) {
	if e.Done {
		return
	}
	e.Done = true
	e.Result, e.Err, e.Trace, e.Code = reply.Result, reply.Err, reply.Trace, reply.Code
	r.countHeldLocked(e, +1)
	r.exportTableLocked()
}

// forgetLocked drops an id's entry (not its amoOrder slot).
func (r *Replica) forgetLocked(id wire.InvocationID) {
	e := r.amo[id]
	r.countHeldLocked(&e, -1)
	delete(r.amo, id)
}

func (r *Replica) forgetClientLocked(client wire.NodeID) {
	r.countHeldLocked(&r.clients[client].Entry, -1)
	delete(r.clients, client)
}

// countHeldLocked adds (sign +1) or removes (-1) e's reply, if it holds one,
// from the count of replies kept.
func (r *Replica) countHeldLocked(e *amoEntry, sign int) {
	if e.Done {
		r.held += sign
		r.heldBytes += sign * (len(e.Result) + len(e.Err))
	}
}

// exportTableLocked publishes the table's size; every change ends here.
func (r *Replica) exportTableLocked() {
	r.cacheEntries.Set(int64(r.held))
	r.cacheBytes.Set(int64(r.heldBytes))
	r.clientRows.Set(int64(len(r.clients)))
	r.idRows.Set(int64(len(r.amo)))
}

// reply rebuilds the cached reply of a done entry, as this replica's own.
func (r *Replica) reply(id wire.InvocationID, e *amoEntry) Reply {
	return Reply{ID: id, From: r.self, Result: e.Result, Err: e.Err, Trace: e.Trace, Code: e.Code}
}
