package replica

import (
	"errors"

	"github.com/replobj/replobj/internal/obs/tracing"
	"github.com/replobj/replobj/internal/wire"
)

// Binary wire codecs of the invocation envelopes. Every client invocation
// crosses the wire as a Request (inside a gcs.Submit, then again inside the
// sequencer's gcs.Ordered) and returns as a Reply, so these two types
// dominate payload bytes. Tags live in the 20–29 range assigned to this
// package; the format and the frame reader are internal/wire/binary.go's.
//
// Each envelope is one frame: a presence byte, the fields every value has,
// then one group of fields per bit set in the presence byte, in bit order.
//
//	Request := presence ID Group Method Args Kind ReplyTo Origin
//	           [trace: TraceID Span] [shard: ShardKey]
//	Reply   := presence ID From Result [outcome: Code Err] [trace: TraceID Span]
//	ID      := Logical Call Seq
//
// An id names its logical thread by the pair (Logical, Call): for a
// client's call, the client's node name — an identifier the decoder interns
// — and the call's number, so no id text is built or decoded per request.
//
// A group is present exactly when it holds something: the decoder rejects a
// set bit over an all-zero group, a bit outside the defined set and a value
// outside its enum, so every value has one encoding and every frame that
// decodes re-encodes to the same bytes. A trace context counts as present
// when it is Valid; a context with a span but no trace id does not travel.

const (
	tagRequest = 20
	tagReply   = 21
)

// Presence bits of a Request frame.
const (
	reqHasTrace = 1 << iota
	reqHasShard
	// reqHasCall marked the at-most-once call number, since carried by the
	// id; reqHasCopies marked a direct-copy set, since retired. No encoder
	// sets either, and a frame that does is refused like any undefined bit.
	reqHasCall
	reqHasCopies
	reqPresenceMask = reqHasCall - 1
)

// Presence bits of a Reply frame.
const (
	repHasOutcome = 1 << iota
	repHasTrace
	repPresenceMask = 1<<iota - 1
)

var (
	errPresenceBits = errors.New("replica: undefined presence bit")
	errEmptyGroup   = errors.New("replica: presence bit set over an empty field group")
)

func init() {
	wire.Register(tagRequest, encRequest, decRequest)
	wire.Register(tagReply, encReply, decReply)
}

func encRequest(b *wire.Buffer, q Request) error {
	var presence byte
	if q.Trace.Valid() {
		presence |= reqHasTrace
	}
	if q.ShardKey != "" {
		presence |= reqHasShard
	}
	b.Byte(presence)
	encInvocationID(b, q.ID)
	b.String(string(q.Group))
	b.String(q.Method)
	b.Bytes(q.Args)
	b.Byte(byte(q.Kind))
	b.String(string(q.ReplyTo))
	b.String(string(q.Origin))
	if presence&reqHasTrace != 0 {
		encTrace(b, q.Trace)
	}
	if presence&reqHasShard != 0 {
		b.String(q.ShardKey)
	}
	return nil
}

func decRequest(r *wire.Reader) Request {
	presence := r.Byte()
	if presence&^reqPresenceMask != 0 {
		r.Fail(errPresenceBits)
	}
	q := Request{ID: decInvocationID(r), Group: wire.GroupID(r.Ident()), Method: r.Ident(), Args: r.Bytes()}
	if q.Kind = RequestKind(r.Byte()); q.Kind > KindNested {
		r.Fail(errors.New("replica: unknown request kind"))
	}
	q.ReplyTo, q.Origin = wire.NodeID(r.Ident()), wire.GroupID(r.Ident())
	if presence&reqHasTrace != 0 {
		q.Trace = decTrace(r)
	}
	if presence&reqHasShard != 0 {
		if q.ShardKey = r.Key(); q.ShardKey == "" {
			r.Fail(errEmptyGroup)
		}
	}
	return q
}

func encReply(b *wire.Buffer, p Reply) error {
	var presence byte
	if p.Code != CodeNone || p.Err != "" {
		presence |= repHasOutcome
	}
	if p.Trace.Valid() {
		presence |= repHasTrace
	}
	b.Byte(presence)
	encInvocationID(b, p.ID)
	b.String(string(p.From))
	b.Bytes(p.Result)
	if presence&repHasOutcome != 0 {
		b.Byte(byte(p.Code))
		b.String(p.Err)
	}
	if presence&repHasTrace != 0 {
		encTrace(b, p.Trace)
	}
	return nil
}

func decReply(r *wire.Reader) Reply {
	presence := r.Byte()
	if presence&^repPresenceMask != 0 {
		r.Fail(errPresenceBits)
	}
	// Result is lent from the frame of a top-level Reply: the client, its one
	// receiver, copies it only into a reply it keeps (see Client.receive).
	p := Reply{ID: decInvocationID(r), From: wire.NodeID(r.Ident()), Result: r.Lend()}
	if presence&repHasOutcome != 0 {
		if p.Code = Code(r.Byte()); p.Code > CodeExpiredDuplicate {
			r.Fail(errors.New("replica: unknown reply code"))
		}
		if p.Err = r.String(); p.Code == CodeNone && p.Err == "" {
			r.Fail(errEmptyGroup)
		}
	}
	if presence&repHasTrace != 0 {
		p.Trace = decTrace(r)
	}
	return p
}

func encTrace(b *wire.Buffer, c tracing.Context) {
	b.Uvarint(c.TraceID)
	b.Uvarint(c.Span)
}

// decTrace reads a trace group; an invalid context is an empty group.
func decTrace(r *wire.Reader) tracing.Context {
	c := tracing.Context{TraceID: r.Uvarint(), Span: r.Uvarint()}
	if !c.Valid() {
		r.Fail(errEmptyGroup)
	}
	return c
}

func encInvocationID(b *wire.Buffer, id wire.InvocationID) {
	b.String(string(id.Logical))
	b.Uvarint(id.Call)
	b.Uvarint(id.Seq)
}

func decInvocationID(r *wire.Reader) wire.InvocationID {
	return wire.InvocationID{Logical: wire.LogicalID(r.Ident()), Call: r.Uvarint(), Seq: r.Uvarint()}
}
