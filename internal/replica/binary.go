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
// package (see internal/wire/binary.go).
//
// Each envelope is one frame: a presence byte, the fields every value has,
// then one group of fields per bit set in the presence byte, in bit order.
//
//	Request := presence ID Group Method Args Kind ReplyTo Origin
//	           [trace: TraceID Span] [shard: ShardEpoch ShardKey]
//	           [cross: count key...] [call: Call]
//	Reply   := presence ID From Result
//	           [outcome: Code Err] [trace: TraceID Span] [epoch: ShardEpoch]
//
// A group is present exactly when it holds something: the decoder rejects a
// set bit over an all-zero group, a bit outside the defined set and a value
// outside its enum, so every value has one encoding and every frame that
// decodes re-encodes to the same bytes. A trace context counts as present
// when it is Valid; a context with a span but no trace id does not travel.

const (
	tagRequest      = 20
	tagReply        = 21
	tagMigrateChunk = 27
)

// Presence bits of a Request frame.
const (
	reqHasTrace = 1 << iota
	reqHasShard
	reqHasCross
	reqHasCall
	reqPresenceMask = 1<<iota - 1
)

// Presence bits of a Reply frame.
const (
	repHasOutcome = 1 << iota
	repHasTrace
	repHasEpoch
	repPresenceMask = 1<<iota - 1
)

var (
	errPresenceBits = errors.New("replica: undefined presence bit")
	errEmptyGroup   = errors.New("replica: presence bit set over an empty field group")
)

// Bounds on the counts a frame may announce: sanity against hostile or
// corrupted length prefixes (a migration's sender chunks at
// shard.DefaultChunkKeys, far below either chunk bound).
const (
	maxCrossKeys  = 1 << 12
	maxChunkKeys  = 1 << 20
	maxChunkCache = 1 << 16
)

// register installs T's two codecs: the binary one under tag, and the gob
// twin the differential tests hold it against.
func register[T any](tag uint64, enc func(*wire.Buffer, T), dec func(*wire.Reader) (T, error)) {
	var prototype T
	wire.RegisterPayload(prototype)
	wire.RegisterBinaryPayload(tag, prototype,
		func(b *wire.Buffer, v any) error {
			enc(b, v.(T))
			return nil
		},
		func(r *wire.Reader) (any, error) { return dec(r) })
}

func init() {
	register(tagRequest, encRequest, decRequest)
	register(tagReply, encReply, decReply)
	register(tagMigrateChunk, encMigrateChunk, decMigrateChunk)
}

func encMigrateChunk(b *wire.Buffer, ck MigrateChunk) {
	b.String(ck.Object)
	b.Uvarint(ck.Epoch)
	b.String(string(ck.Source))
	b.String(string(ck.Target))
	b.Uvarint(uint64(ck.Index))
	b.Uvarint(uint64(ck.Count))
	b.Uvarint(ck.Cut)
	b.Uvarint(uint64(len(ck.Keys)))
	for _, k := range ck.Keys {
		b.String(k.Key)
		b.Bytes(k.Data)
	}
	b.Uvarint(uint64(len(ck.Cache)))
	for _, ce := range ck.Cache {
		encInvocationID(b, ce.ID)
		b.String(ce.Key)
		encReply(b, ce.Reply)
		b.String(string(ce.Client))
		b.Uvarint(ce.Call)
	}
}

func decMigrateChunk(r *wire.Reader) (MigrateChunk, error) {
	var ck MigrateChunk
	var err error
	if ck.Object, err = r.Ident(); err != nil {
		return ck, err
	}
	if ck.Epoch, err = r.Uvarint(); err != nil {
		return ck, err
	}
	if ck.Source, err = ident[wire.GroupID](r); err != nil {
		return ck, err
	}
	if ck.Target, err = ident[wire.GroupID](r); err != nil {
		return ck, err
	}
	u, err := r.Uvarint()
	if err != nil {
		return ck, err
	}
	ck.Index = int(u)
	if u, err = r.Uvarint(); err != nil {
		return ck, err
	}
	ck.Count = int(u)
	if ck.Cut, err = r.Uvarint(); err != nil {
		return ck, err
	}
	n, err := r.Uvarint()
	if err != nil {
		return ck, err
	}
	if n > maxChunkKeys {
		return ck, errors.New("replica: implausible migration chunk key count")
	}
	if n > 0 {
		ck.Keys = make([]KeyState, n)
		for i := range ck.Keys {
			if ck.Keys[i].Key, err = r.String(); err != nil {
				return ck, err
			}
			if ck.Keys[i].Data, err = r.Bytes(); err != nil {
				return ck, err
			}
		}
	}
	if n, err = r.Uvarint(); err != nil {
		return ck, err
	}
	if n > maxChunkCache {
		return ck, errors.New("replica: implausible migration cache entry count")
	}
	if n > 0 {
		ck.Cache = make([]CacheEntry, n)
		for i := range ck.Cache {
			if ck.Cache[i].ID, err = decInvocationID(r); err != nil {
				return ck, err
			}
			if ck.Cache[i].Key, err = r.String(); err != nil {
				return ck, err
			}
			if ck.Cache[i].Reply, err = decReply(r); err != nil {
				return ck, err
			}
			if ck.Cache[i].Client, err = ident[wire.NodeID](r); err != nil {
				return ck, err
			}
			if ck.Cache[i].Call, err = r.Uvarint(); err != nil {
				return ck, err
			}
		}
	}
	return ck, nil
}

func encRequest(b *wire.Buffer, q Request) {
	var presence byte
	if q.Trace.Valid() {
		presence |= reqHasTrace
	}
	if q.ShardEpoch != 0 || q.ShardKey != "" {
		presence |= reqHasShard
	}
	if len(q.CrossKeys) > 0 {
		presence |= reqHasCross
	}
	if q.Call != 0 {
		presence |= reqHasCall
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
		b.Uvarint(q.ShardEpoch)
		b.String(q.ShardKey)
	}
	if presence&reqHasCross != 0 {
		b.Uvarint(uint64(len(q.CrossKeys)))
		for _, k := range q.CrossKeys {
			b.String(k)
		}
	}
	if presence&reqHasCall != 0 {
		b.Uvarint(q.Call)
	}
}

func decRequest(r *wire.Reader) (Request, error) {
	var q Request
	presence, err := r.Byte()
	if err != nil {
		return q, err
	}
	if presence&^reqPresenceMask != 0 {
		return q, errPresenceBits
	}
	if q.ID, err = decInvocationID(r); err != nil {
		return q, err
	}
	if q.Group, err = ident[wire.GroupID](r); err != nil {
		return q, err
	}
	if q.Method, err = r.Ident(); err != nil {
		return q, err
	}
	if q.Args, err = r.Bytes(); err != nil {
		return q, err
	}
	kind, err := r.Byte()
	if err != nil {
		return q, err
	}
	if q.Kind = RequestKind(kind); q.Kind > KindNested {
		return q, errors.New("replica: unknown request kind")
	}
	if q.ReplyTo, err = ident[wire.NodeID](r); err != nil {
		return q, err
	}
	if q.Origin, err = ident[wire.GroupID](r); err != nil {
		return q, err
	}
	if presence&reqHasTrace != 0 {
		if q.Trace, err = decTrace(r); err != nil {
			return q, err
		}
	}
	if presence&reqHasShard != 0 {
		if q.ShardEpoch, err = r.Uvarint(); err != nil {
			return q, err
		}
		if q.ShardKey, err = r.String(); err != nil {
			return q, err
		}
		if q.ShardEpoch == 0 && q.ShardKey == "" {
			return q, errEmptyGroup
		}
	}
	if presence&reqHasCross != 0 {
		n, err := r.Uvarint()
		if err != nil {
			return q, err
		}
		if n == 0 {
			return q, errEmptyGroup
		}
		if n > maxCrossKeys {
			return q, errors.New("replica: implausible cross-shard key count")
		}
		q.CrossKeys = make([]string, n)
		for i := range q.CrossKeys {
			if q.CrossKeys[i], err = r.String(); err != nil {
				return q, err
			}
		}
	}
	if presence&reqHasCall != 0 {
		if q.Call, err = r.Uvarint(); err != nil {
			return q, err
		}
		if q.Call == 0 {
			return q, errEmptyGroup
		}
	}
	return q, nil
}

func encReply(b *wire.Buffer, p Reply) {
	var presence byte
	if p.Code != CodeNone || p.Err != "" {
		presence |= repHasOutcome
	}
	if p.Trace.Valid() {
		presence |= repHasTrace
	}
	if p.ShardEpoch != 0 {
		presence |= repHasEpoch
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
	if presence&repHasEpoch != 0 {
		b.Uvarint(p.ShardEpoch)
	}
}

func decReply(r *wire.Reader) (Reply, error) {
	var p Reply
	presence, err := r.Byte()
	if err != nil {
		return p, err
	}
	if presence&^repPresenceMask != 0 {
		return p, errPresenceBits
	}
	if p.ID, err = decInvocationID(r); err != nil {
		return p, err
	}
	if p.From, err = ident[wire.NodeID](r); err != nil {
		return p, err
	}
	if p.Result, err = r.Bytes(); err != nil {
		return p, err
	}
	if presence&repHasOutcome != 0 {
		code, err := r.Byte()
		if err != nil {
			return p, err
		}
		if p.Code = Code(code); p.Code > CodeExpiredDuplicate {
			return p, errors.New("replica: unknown reply code")
		}
		if p.Err, err = r.String(); err != nil {
			return p, err
		}
		if p.Code == CodeNone && p.Err == "" {
			return p, errEmptyGroup
		}
	}
	if presence&repHasTrace != 0 {
		if p.Trace, err = decTrace(r); err != nil {
			return p, err
		}
	}
	if presence&repHasEpoch != 0 {
		if p.ShardEpoch, err = r.Uvarint(); err != nil {
			return p, err
		}
		if p.ShardEpoch == 0 {
			return p, errEmptyGroup
		}
	}
	return p, nil
}

func encTrace(b *wire.Buffer, c tracing.Context) {
	b.Uvarint(c.TraceID)
	b.Uvarint(c.Span)
}

// decTrace reads a trace group; an invalid context is an empty group.
func decTrace(r *wire.Reader) (tracing.Context, error) {
	var c tracing.Context
	var err error
	if c.TraceID, err = r.Uvarint(); err != nil {
		return c, err
	}
	if c.Span, err = r.Uvarint(); err != nil {
		return c, err
	}
	if !c.Valid() {
		return c, errEmptyGroup
	}
	return c, nil
}

// ident reads an interned identifier (see wire.Reader.Ident) as one of the
// wire package's named string types.
func ident[T ~string](r *wire.Reader) (T, error) {
	s, err := r.Ident()
	return T(s), err
}

func encInvocationID(b *wire.Buffer, id wire.InvocationID) {
	b.String(string(id.Logical))
	b.Uvarint(id.Seq)
}

func decInvocationID(r *wire.Reader) (wire.InvocationID, error) {
	var id wire.InvocationID
	s, err := r.String()
	if err != nil {
		return id, err
	}
	id.Logical = wire.LogicalID(s)
	if id.Seq, err = r.Uvarint(); err != nil {
		return id, err
	}
	return id, nil
}
