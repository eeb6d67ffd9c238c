package gcs

import (
	"fmt"

	"github.com/replobj/replobj/internal/wire"
)

// Binary wire-codec fast paths for the gcs protocol messages — the hottest
// payloads on the wire (every invocation crosses the network as a Submit
// and again inside an Ordered, and heartbeats tick constantly). Tags live
// in the 10–19 range assigned to this package (see internal/wire/binary.go
// for the format and the canonical-encoding rules the decoders enforce).

const (
	tagSubmit    = 10
	tagOrdered   = 11
	tagNack      = 12
	tagHeartbeat = 13
	tagPropose   = 14
	tagSyncReq   = 15
	tagSyncResp  = 16
	tagSnapshot  = 17
	tagHint      = 18
)

func init() {
	wire.RegisterBinaryPayload(tagSubmit, Submit{},
		func(b *wire.Buffer, v any) error { return encSubmit(b, v.(Submit)) },
		func(r *wire.Reader) (any, error) { return decSubmit(r) })
	wire.RegisterBinaryPayload(tagOrdered, Ordered{},
		func(b *wire.Buffer, v any) error { return encOrdered(b, v.(Ordered)) },
		func(r *wire.Reader) (any, error) { return decOrdered(r) })
	wire.RegisterBinaryPayload(tagNack, Nack{},
		func(b *wire.Buffer, v any) error {
			n := v.(Nack)
			b.String(string(n.Group))
			b.String(string(n.From))
			b.Uvarint(n.Want)
			return nil
		},
		func(r *wire.Reader) (any, error) {
			var n Nack
			var err error
			if n.Group, err = groupID(r); err != nil {
				return nil, err
			}
			if n.From, err = nodeID(r); err != nil {
				return nil, err
			}
			if n.Want, err = r.Uvarint(); err != nil {
				return nil, err
			}
			return n, nil
		})
	wire.RegisterBinaryPayload(tagHeartbeat, Heartbeat{},
		func(b *wire.Buffer, v any) error {
			h := v.(Heartbeat)
			b.String(string(h.Group))
			b.String(string(h.From))
			b.Uvarint(h.Epoch)
			b.Uvarint(h.MaxSeq)
			b.Uvarint(h.Acked)
			return nil
		},
		func(r *wire.Reader) (any, error) {
			var h Heartbeat
			var err error
			if h.Group, err = groupID(r); err != nil {
				return nil, err
			}
			if h.From, err = nodeID(r); err != nil {
				return nil, err
			}
			if h.Epoch, err = r.Uvarint(); err != nil {
				return nil, err
			}
			if h.MaxSeq, err = r.Uvarint(); err != nil {
				return nil, err
			}
			if h.Acked, err = r.Uvarint(); err != nil {
				return nil, err
			}
			return h, nil
		})
	wire.RegisterBinaryPayload(tagPropose, Propose{},
		func(b *wire.Buffer, v any) error {
			p := v.(Propose)
			b.String(string(p.Group))
			b.String(string(p.From))
			encView(b, p.View)
			return nil
		},
		func(r *wire.Reader) (any, error) {
			var p Propose
			var err error
			if p.Group, err = groupID(r); err != nil {
				return nil, err
			}
			if p.From, err = nodeID(r); err != nil {
				return nil, err
			}
			if p.View, err = decView(r); err != nil {
				return nil, err
			}
			return p, nil
		})
	wire.RegisterBinaryPayload(tagSyncReq, SyncReq{},
		func(b *wire.Buffer, v any) error {
			q := v.(SyncReq)
			b.String(string(q.Group))
			b.String(string(q.From))
			encView(b, q.View)
			return nil
		},
		func(r *wire.Reader) (any, error) {
			var q SyncReq
			var err error
			if q.Group, err = groupID(r); err != nil {
				return nil, err
			}
			if q.From, err = nodeID(r); err != nil {
				return nil, err
			}
			if q.View, err = decView(r); err != nil {
				return nil, err
			}
			return q, nil
		})
	wire.RegisterBinaryPayload(tagSyncResp, SyncResp{},
		func(b *wire.Buffer, v any) error { return encSyncResp(b, v.(SyncResp)) },
		func(r *wire.Reader) (any, error) { return decSyncResp(r) })
	wire.RegisterBinaryPayload(tagSnapshot, Snapshot{},
		func(b *wire.Buffer, v any) error {
			s := v.(Snapshot)
			b.String(string(s.Group))
			b.Uvarint(s.Seq)
			b.Bytes(s.Data)
			return nil
		},
		func(r *wire.Reader) (any, error) {
			var s Snapshot
			var err error
			if s.Group, err = groupID(r); err != nil {
				return nil, err
			}
			if s.Seq, err = r.Uvarint(); err != nil {
				return nil, err
			}
			if s.Data, err = r.Bytes(); err != nil {
				return nil, err
			}
			return s, nil
		})
	wire.RegisterBinaryPayload(tagHint, Hint{},
		func(b *wire.Buffer, v any) error {
			h := v.(Hint)
			b.String(string(h.Group))
			b.String(h.ID)
			b.Uvarint(h.Seq)
			return nil
		},
		func(r *wire.Reader) (any, error) {
			var h Hint
			var err error
			if h.Group, err = groupID(r); err != nil {
				return nil, err
			}
			if h.ID, err = r.String(); err != nil {
				return nil, err
			}
			if h.Seq, err = r.Uvarint(); err != nil {
				return nil, err
			}
			return h, nil
		})
}

// Group and node names repeat in every frame of a connection: they are
// read through the stream's intern table. Submit ids are unique per
// request and stay plain strings.
func groupID(r *wire.Reader) (wire.GroupID, error) {
	s, err := r.Ident()
	return wire.GroupID(s), err
}

func nodeID(r *wire.Reader) (wire.NodeID, error) {
	s, err := r.Ident()
	return wire.NodeID(s), err
}

func encSubmit(b *wire.Buffer, s Submit) error {
	b.String(string(s.Group))
	b.String(s.ID)
	b.String(string(s.Origin))
	return b.Any(s.Payload)
}

func decSubmit(r *wire.Reader) (Submit, error) {
	var s Submit
	var err error
	if s.Group, err = groupID(r); err != nil {
		return s, err
	}
	if s.ID, err = r.String(); err != nil {
		return s, err
	}
	if s.Origin, err = nodeID(r); err != nil {
		return s, err
	}
	if s.Payload, err = r.Any(); err != nil {
		return s, err
	}
	return s, nil
}

func encView(b *wire.Buffer, v View) {
	b.Uvarint(v.Epoch)
	b.Uvarint(uint64(len(v.Members)))
	for _, m := range v.Members {
		b.String(string(m))
	}
}

func decView(r *wire.Reader) (View, error) {
	var v View
	var err error
	if v.Epoch, err = r.Uvarint(); err != nil {
		return v, err
	}
	n, err := sliceLen(r, "view members")
	if err != nil {
		return v, err
	}
	if n == 0 {
		return v, nil
	}
	v.Members = make([]wire.NodeID, 0, n)
	for i := 0; i < n; i++ {
		m, err := nodeID(r)
		if err != nil {
			return v, err
		}
		v.Members = append(v.Members, m)
	}
	return v, nil
}

// sliceLen reads a slice length and sanity-checks it against the bytes
// remaining in the frame (every element costs at least one byte), so
// corrupt input cannot request an absurd allocation.
func sliceLen(r *wire.Reader, what string) (int, error) {
	n, err := r.Uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(r.Remaining()) {
		return 0, fmt.Errorf("gcs: %s count %d exceeds frame", what, n)
	}
	return int(n), nil
}

func encOrdered(b *wire.Buffer, o Ordered) error {
	b.String(string(o.Group))
	b.Uvarint(o.Epoch)
	b.Uvarint(o.Seq)
	b.String(o.ID)
	b.String(string(o.Origin))
	if err := b.Any(o.Payload); err != nil {
		return err
	}
	b.Bool(o.View != nil)
	if o.View != nil {
		encView(b, *o.View)
	}
	return nil
}

func decOrdered(r *wire.Reader) (Ordered, error) {
	var o Ordered
	var err error
	if o.Group, err = groupID(r); err != nil {
		return o, err
	}
	if o.Epoch, err = r.Uvarint(); err != nil {
		return o, err
	}
	if o.Seq, err = r.Uvarint(); err != nil {
		return o, err
	}
	if o.ID, err = r.String(); err != nil {
		return o, err
	}
	if o.Origin, err = nodeID(r); err != nil {
		return o, err
	}
	if o.Payload, err = r.Any(); err != nil {
		return o, err
	}
	hasView, err := r.Bool()
	if err != nil {
		return o, err
	}
	if hasView {
		v, err := decView(r)
		if err != nil {
			return o, err
		}
		o.View = &v
	}
	return o, nil
}

func encSyncResp(b *wire.Buffer, s SyncResp) error {
	b.String(string(s.Group))
	b.String(string(s.From))
	b.Uvarint(s.Epoch)
	b.Uvarint(s.Delivered)
	b.Uvarint(uint64(len(s.Tail)))
	for _, o := range s.Tail {
		if err := encOrdered(b, o); err != nil {
			return err
		}
	}
	b.Uvarint(uint64(len(s.Pending)))
	for _, sub := range s.Pending {
		if err := encSubmit(b, sub); err != nil {
			return err
		}
	}
	b.Uvarint(s.SnapSeq)
	b.Bytes(s.Snap)
	return nil
}

func decSyncResp(r *wire.Reader) (SyncResp, error) {
	var s SyncResp
	var err error
	if s.Group, err = groupID(r); err != nil {
		return s, err
	}
	if s.From, err = nodeID(r); err != nil {
		return s, err
	}
	if s.Epoch, err = r.Uvarint(); err != nil {
		return s, err
	}
	if s.Delivered, err = r.Uvarint(); err != nil {
		return s, err
	}
	n, err := sliceLen(r, "sync tail")
	if err != nil {
		return s, err
	}
	if n > 0 {
		s.Tail = make([]Ordered, 0, n)
		for i := 0; i < n; i++ {
			o, err := decOrdered(r)
			if err != nil {
				return s, err
			}
			s.Tail = append(s.Tail, o)
		}
	}
	n, err = sliceLen(r, "sync pending")
	if err != nil {
		return s, err
	}
	if n > 0 {
		s.Pending = make([]Submit, 0, n)
		for i := 0; i < n; i++ {
			sub, err := decSubmit(r)
			if err != nil {
				return s, err
			}
			s.Pending = append(s.Pending, sub)
		}
	}
	if s.SnapSeq, err = r.Uvarint(); err != nil {
		return s, err
	}
	if s.Snap, err = r.Bytes(); err != nil {
		return s, err
	}
	return s, nil
}
