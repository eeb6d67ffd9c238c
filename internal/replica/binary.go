package replica

import (
	"errors"

	"github.com/replobj/replobj/internal/obs/tracing"
	"github.com/replobj/replobj/internal/wire"
)

// Binary wire-codec fast paths for the invocation envelopes. Every client
// invocation crosses the wire as a Request (inside a gcs.Submit, then again
// inside the sequencer's gcs.Ordered) and returns as a Reply, so these two
// types dominate payload bytes. Tags live in the 20–29 range assigned to
// this package (see internal/wire/binary.go).
//
// Traced requests and replies (non-zero Trace context) take the variant
// tags 22/23, which append the two context words after the base fields.
// Untraced values keep tags 20/21 with the exact pre-tracing byte layout,
// so mixed-version peers interoperate as long as tracing stays off.
//
// Shard-routed traffic takes tags 24–26: 24 appends the routing epoch,
// the shard key and the trace words to a request; 25 additionally carries
// the cross-shard key list; 26 appends a reply's shard epoch and trace
// words. The variant predicates are mutually exclusive (a value matches
// exactly one tag), so the canonical-encoding invariant — decode then
// re-encode is byte-stable — holds regardless of registration order.

const (
	tagRequest       = 20
	tagReply         = 21
	tagRequestTraced = 22
	tagReplyTraced   = 23
	tagRequestShard  = 24
	tagRequestCross  = 25
	tagReplyShard    = 26
	tagMigrateChunk  = 27
)

// errUntracedVariant rejects traced-tag frames whose context is zero —
// the canonical encoding of those values is the untraced tag.
var errUntracedVariant = errors.New("replica: traced payload tag without trace id")

// errUnshardedVariant rejects shard-tag frames without shard fields — the
// canonical encoding of those values is tag 20/22 (or 21/23 for replies).
var errUnshardedVariant = errors.New("replica: shard payload tag without shard fields")

// maxCrossKeys bounds the cross-shard key list a frame may carry: sanity
// against hostile or corrupted length prefixes.
const maxCrossKeys = 1 << 12

// maxChunkKeys / maxChunkCache bound a migration chunk's key and
// reply-cache entry counts — again sanity against corrupted prefixes (the
// sender chunks at shard.DefaultChunkKeys, far below either).
const (
	maxChunkKeys  = 1 << 20
	maxChunkCache = 1 << 16
)

func requestSharded(q Request) bool {
	return q.ShardEpoch != 0 || q.ShardKey != ""
}

func init() {
	wire.RegisterBinaryPayload(tagRequest, Request{},
		func(b *wire.Buffer, v any) error {
			encRequestFields(b, v.(Request))
			return nil
		},
		func(r *wire.Reader) (any, error) {
			return decRequestFields(r)
		})
	wire.RegisterBinaryPayloadVariant(tagRequestTraced, Request{},
		func(v any) bool {
			q := v.(Request)
			return q.Trace.Valid() && !requestSharded(q) && len(q.CrossKeys) == 0
		},
		func(b *wire.Buffer, v any) error {
			q := v.(Request)
			encRequestFields(b, q)
			b.Uvarint(q.Trace.TraceID)
			b.Uvarint(q.Trace.Span)
			return nil
		},
		func(r *wire.Reader) (any, error) {
			q, err := decRequestFields(r)
			if err != nil {
				return nil, err
			}
			if q.Trace.TraceID, err = r.Uvarint(); err != nil {
				return nil, err
			}
			if q.Trace.Span, err = r.Uvarint(); err != nil {
				return nil, err
			}
			if !q.Trace.Valid() {
				// Canonical form: a zero trace id belongs on the untraced
				// tag. Rejecting it keeps re-encoding byte-stable.
				return nil, errUntracedVariant
			}
			return q, nil
		})
	wire.RegisterBinaryPayloadVariant(tagRequestShard, Request{},
		func(v any) bool {
			q := v.(Request)
			return requestSharded(q) && len(q.CrossKeys) == 0
		},
		func(b *wire.Buffer, v any) error {
			q := v.(Request)
			encRequestFields(b, q)
			b.Uvarint(q.ShardEpoch)
			b.String(q.ShardKey)
			b.Uvarint(q.Trace.TraceID)
			b.Uvarint(q.Trace.Span)
			return nil
		},
		func(r *wire.Reader) (any, error) {
			q, err := decRequestShardFields(r)
			if err != nil {
				return nil, err
			}
			if !requestSharded(q) {
				// Canonical form: without shard fields this is a 20/22 frame.
				return nil, errUnshardedVariant
			}
			return q, nil
		})
	wire.RegisterBinaryPayloadVariant(tagRequestCross, Request{},
		func(v any) bool { return len(v.(Request).CrossKeys) > 0 },
		func(b *wire.Buffer, v any) error {
			q := v.(Request)
			encRequestFields(b, q)
			b.Uvarint(q.ShardEpoch)
			b.String(q.ShardKey)
			b.Uvarint(uint64(len(q.CrossKeys)))
			for _, k := range q.CrossKeys {
				b.String(k)
			}
			b.Uvarint(q.Trace.TraceID)
			b.Uvarint(q.Trace.Span)
			return nil
		},
		func(r *wire.Reader) (any, error) {
			q, err := decRequestFields(r)
			if err != nil {
				return nil, err
			}
			if q.ShardEpoch, err = r.Uvarint(); err != nil {
				return nil, err
			}
			if q.ShardKey, err = r.String(); err != nil {
				return nil, err
			}
			n, err := r.Uvarint()
			if err != nil {
				return nil, err
			}
			if n == 0 {
				// Canonical form: no cross keys belongs on tag 24 (or 20/22).
				return nil, errUnshardedVariant
			}
			if n > maxCrossKeys {
				return nil, errors.New("replica: implausible cross-shard key count")
			}
			q.CrossKeys = make([]string, n)
			for i := range q.CrossKeys {
				if q.CrossKeys[i], err = r.String(); err != nil {
					return nil, err
				}
			}
			if q.Trace.TraceID, err = r.Uvarint(); err != nil {
				return nil, err
			}
			if q.Trace.Span, err = r.Uvarint(); err != nil {
				return nil, err
			}
			return q, nil
		})
	wire.RegisterBinaryPayload(tagReply, Reply{},
		func(b *wire.Buffer, v any) error {
			encReplyFields(b, v.(Reply))
			return nil
		},
		func(r *wire.Reader) (any, error) {
			return decReplyFields(r)
		})
	wire.RegisterBinaryPayloadVariant(tagReplyTraced, Reply{},
		func(v any) bool {
			p := v.(Reply)
			return p.Trace.Valid() && p.ShardEpoch == 0
		},
		func(b *wire.Buffer, v any) error {
			p := v.(Reply)
			encReplyFields(b, p)
			b.Uvarint(p.Trace.TraceID)
			b.Uvarint(p.Trace.Span)
			return nil
		},
		func(r *wire.Reader) (any, error) {
			p, err := decReplyFields(r)
			if err != nil {
				return nil, err
			}
			if p.Trace.TraceID, err = r.Uvarint(); err != nil {
				return nil, err
			}
			if p.Trace.Span, err = r.Uvarint(); err != nil {
				return nil, err
			}
			if !p.Trace.Valid() {
				return nil, errUntracedVariant
			}
			return p, nil
		})
	wire.RegisterBinaryPayloadVariant(tagReplyShard, Reply{},
		func(v any) bool { return v.(Reply).ShardEpoch != 0 },
		func(b *wire.Buffer, v any) error {
			p := v.(Reply)
			encReplyFields(b, p)
			b.Uvarint(p.ShardEpoch)
			b.Uvarint(p.Trace.TraceID)
			b.Uvarint(p.Trace.Span)
			return nil
		},
		func(r *wire.Reader) (any, error) {
			p, err := decReplyFields(r)
			if err != nil {
				return nil, err
			}
			if p.ShardEpoch, err = r.Uvarint(); err != nil {
				return nil, err
			}
			if p.Trace.TraceID, err = r.Uvarint(); err != nil {
				return nil, err
			}
			if p.Trace.Span, err = r.Uvarint(); err != nil {
				return nil, err
			}
			if p.ShardEpoch == 0 {
				// Canonical form: epoch-less replies belong on tags 21/23.
				return nil, errUnshardedVariant
			}
			return p, nil
		})
	wire.RegisterBinaryPayload(tagMigrateChunk, MigrateChunk{},
		func(b *wire.Buffer, v any) error {
			encMigrateChunk(b, v.(MigrateChunk))
			return nil
		},
		func(r *wire.Reader) (any, error) {
			return decMigrateChunk(r)
		})
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
		encReplyFields(b, ce.Reply)
		b.Uvarint(ce.Reply.ShardEpoch)
		b.Uvarint(ce.Reply.Trace.TraceID)
		b.Uvarint(ce.Reply.Trace.Span)
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
	s, err := r.Ident()
	if err != nil {
		return ck, err
	}
	ck.Source = wire.GroupID(s)
	if s, err = r.Ident(); err != nil {
		return ck, err
	}
	ck.Target = wire.GroupID(s)
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
			if ck.Cache[i].Reply, err = decReplyFields(r); err != nil {
				return ck, err
			}
			if ck.Cache[i].Reply.ShardEpoch, err = r.Uvarint(); err != nil {
				return ck, err
			}
			if ck.Cache[i].Reply.Trace.TraceID, err = r.Uvarint(); err != nil {
				return ck, err
			}
			if ck.Cache[i].Reply.Trace.Span, err = r.Uvarint(); err != nil {
				return ck, err
			}
		}
	}
	return ck, nil
}

// decRequestShardFields decodes a tag-24 frame: base fields, shard epoch,
// shard key, trace words.
func decRequestShardFields(r *wire.Reader) (Request, error) {
	q, err := decRequestFields(r)
	if err != nil {
		return q, err
	}
	if q.ShardEpoch, err = r.Uvarint(); err != nil {
		return q, err
	}
	if q.ShardKey, err = r.String(); err != nil {
		return q, err
	}
	if q.Trace.TraceID, err = r.Uvarint(); err != nil {
		return q, err
	}
	if q.Trace.Span, err = r.Uvarint(); err != nil {
		return q, err
	}
	return q, nil
}

func encRequestFields(b *wire.Buffer, q Request) {
	encInvocationID(b, q.ID)
	b.String(string(q.Group))
	b.String(q.Method)
	b.Bytes(q.Args)
	b.Byte(byte(q.Kind))
	b.String(string(q.ReplyTo))
	b.String(string(q.Origin))
}

func decRequestFields(r *wire.Reader) (Request, error) {
	var q Request
	var err error
	if q.ID, err = decInvocationID(r); err != nil {
		return q, err
	}
	s, err := r.Ident()
	if err != nil {
		return q, err
	}
	q.Group = wire.GroupID(s)
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
	q.Kind = RequestKind(kind)
	if s, err = r.Ident(); err != nil {
		return q, err
	}
	q.ReplyTo = wire.NodeID(s)
	if s, err = r.Ident(); err != nil {
		return q, err
	}
	q.Origin = wire.GroupID(s)
	return q, nil
}

func encReplyFields(b *wire.Buffer, p Reply) {
	encInvocationID(b, p.ID)
	b.String(string(p.From))
	b.Bytes(p.Result)
	b.String(p.Err)
}

func decReplyFields(r *wire.Reader) (Reply, error) {
	var p Reply
	var err error
	if p.ID, err = decInvocationID(r); err != nil {
		return p, err
	}
	s, err := r.Ident()
	if err != nil {
		return p, err
	}
	p.From = wire.NodeID(s)
	if p.Result, err = r.Bytes(); err != nil {
		return p, err
	}
	if p.Err, err = r.String(); err != nil {
		return p, err
	}
	return p, nil
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

var (
	_ tracing.Traced = Request{}
	_ tracing.Traced = Reply{}
)
