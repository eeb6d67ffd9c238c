package gcs

import (
	"fmt"

	"github.com/replobj/replobj/internal/wire"
)

// Binary wire-codec fast paths for the gcs protocol messages — the hottest
// payloads on the wire (every invocation crosses the network as a Submit
// and again inside an Ordered, and heartbeats tick constantly). Tags live
// in the 10–19 range assigned to this package; the format, the frame reader
// and the canonical-encoding rules the decoders enforce are
// internal/wire/binary.go's.

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
	wire.Register(tagSubmit, encSubmit, decSubmit)
	wire.Register(tagOrdered, encOrdered, decOrdered)
	wire.Register(tagNack, func(b *wire.Buffer, n Nack) error {
		b.String(string(n.Group))
		b.String(string(n.From))
		b.Uvarint(n.Want)
		return nil
	}, func(r *wire.Reader) Nack {
		return Nack{Group: wire.GroupID(r.Ident()), From: wire.NodeID(r.Ident()), Want: r.Uvarint()}
	})
	wire.Register(tagHeartbeat, func(b *wire.Buffer, h Heartbeat) error {
		b.String(string(h.Group))
		b.String(string(h.From))
		b.Uvarint(h.Epoch)
		b.Uvarint(h.MaxSeq)
		b.Uvarint(h.Acked)
		return nil
	}, func(r *wire.Reader) Heartbeat {
		return Heartbeat{Group: wire.GroupID(r.Ident()), From: wire.NodeID(r.Ident()), Epoch: r.Uvarint(), MaxSeq: r.Uvarint(), Acked: r.Uvarint()}
	})
	wire.Register(tagPropose, func(b *wire.Buffer, p Propose) error {
		b.String(string(p.Group))
		b.String(string(p.From))
		encView(b, p.View)
		return nil
	}, func(r *wire.Reader) Propose {
		return Propose{Group: wire.GroupID(r.Ident()), From: wire.NodeID(r.Ident()), View: decView(r)}
	})
	wire.Register(tagSyncReq, func(b *wire.Buffer, q SyncReq) error {
		b.String(string(q.Group))
		b.String(string(q.From))
		encView(b, q.View)
		return nil
	}, func(r *wire.Reader) SyncReq {
		return SyncReq{Group: wire.GroupID(r.Ident()), From: wire.NodeID(r.Ident()), View: decView(r)}
	})
	wire.Register(tagSyncResp, encSyncResp, decSyncResp)
	wire.Register(tagSnapshot, func(b *wire.Buffer, s Snapshot) error {
		b.String(string(s.Group))
		b.Uvarint(s.Seq)
		b.Bytes(s.Data)
		return nil
	}, func(r *wire.Reader) Snapshot {
		return Snapshot{Group: wire.GroupID(r.Ident()), Seq: r.Uvarint(), Data: r.Bytes()}
	})
	wire.Register(tagHint, func(b *wire.Buffer, h Hint) error {
		b.String(string(h.Group))
		if err := encID(b, h.ID, h.Call); err != nil {
			return err
		}
		b.String(string(h.Origin))
		b.Uvarint(h.Seq)
		return nil
	}, func(r *wire.Reader) Hint {
		h := Hint{Group: wire.GroupID(r.Ident())}
		h.ID, h.Call = decID(r)
		h.Origin, h.Seq = wire.NodeID(r.Ident()), r.Uvarint()
		return h
	})
}

// A message id on the wire: the call number, then — a named id, call 0 —
// the name, which is unique per message and stays a plain string. A
// numbered id is one varint and no text.
func encID(b *wire.Buffer, id string, call uint64) error {
	b.Uvarint(call)
	if call == 0 {
		b.String(id)
	} else if id != "" {
		return fmt.Errorf("gcs: message id %q with call number %d", id, call)
	}
	return nil
}

func decID(r *wire.Reader) (id string, call uint64) {
	if call = r.Uvarint(); call == 0 {
		id = r.String()
	}
	return id, call
}

func encView(b *wire.Buffer, v View) {
	b.Uvarint(v.Epoch)
	b.Uvarint(uint64(len(v.Members)))
	for _, m := range v.Members {
		b.String(string(m))
	}
}

func decView(r *wire.Reader) View {
	v := View{Epoch: r.Uvarint()}
	v.Members = wire.Elems(r, "view member", 1, func(r *wire.Reader) wire.NodeID { return wire.NodeID(r.Ident()) })
	return v
}

func encSubmit(b *wire.Buffer, s Submit) error {
	b.String(string(s.Group))
	if err := encID(b, s.ID, s.Call); err != nil {
		return err
	}
	b.String(string(s.Origin))
	return b.Any(s.Payload)
}

func decSubmit(r *wire.Reader) Submit {
	s := Submit{Group: wire.GroupID(r.Ident())}
	s.ID, s.Call = decID(r)
	s.Origin, s.Payload = wire.NodeID(r.Ident()), r.Any()
	return s
}

func encOrdered(b *wire.Buffer, o Ordered) error {
	b.String(string(o.Group))
	b.Uvarint(o.Epoch)
	b.Uvarint(o.Seq)
	if err := encID(b, o.ID, o.Call); err != nil {
		return err
	}
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

func decOrdered(r *wire.Reader) Ordered {
	o := Ordered{Group: wire.GroupID(r.Ident()), Epoch: r.Uvarint(), Seq: r.Uvarint()}
	o.ID, o.Call = decID(r)
	o.Origin, o.Payload = wire.NodeID(r.Ident()), r.Any()
	if r.Bool() {
		v := decView(r)
		o.View = &v
	}
	return o
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

func decSyncResp(r *wire.Reader) SyncResp {
	s := SyncResp{Group: wire.GroupID(r.Ident()), From: wire.NodeID(r.Ident()), Epoch: r.Uvarint(), Delivered: r.Uvarint()}
	// The least sizes: an Ordered is five varints or strings, a payload tag
	// and the view flag; a Submit three, and the tag.
	s.Tail = wire.Elems(r, "sync tail", 7, decOrdered)
	s.Pending = wire.Elems(r, "sync pending", 4, decSubmit)
	s.SnapSeq, s.Snap = r.Uvarint(), r.Bytes()
	return s
}
