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
	register(tagSubmit, encSubmit, decSubmit)
	register(tagOrdered, encOrdered, decOrdered)
	register(tagNack, func(b *wire.Buffer, n Nack) error {
		b.String(string(n.Group))
		b.String(string(n.From))
		b.Uvarint(n.Want)
		return nil
	}, func(r *wire.Reader) (Nack, error) {
		d := reader{r: r}
		n := Nack{Group: d.group(), From: d.node(), Want: d.uvarint()}
		return n, d.err
	})
	register(tagHeartbeat, func(b *wire.Buffer, h Heartbeat) error {
		b.String(string(h.Group))
		b.String(string(h.From))
		b.Uvarint(h.Epoch)
		b.Uvarint(h.MaxSeq)
		b.Uvarint(h.Acked)
		return nil
	}, func(r *wire.Reader) (Heartbeat, error) {
		d := reader{r: r}
		h := Heartbeat{Group: d.group(), From: d.node(), Epoch: d.uvarint(), MaxSeq: d.uvarint(), Acked: d.uvarint()}
		return h, d.err
	})
	register(tagPropose, func(b *wire.Buffer, p Propose) error {
		b.String(string(p.Group))
		b.String(string(p.From))
		encView(b, p.View)
		return nil
	}, func(r *wire.Reader) (Propose, error) {
		d := reader{r: r}
		p := Propose{Group: d.group(), From: d.node(), View: d.view()}
		return p, d.err
	})
	register(tagSyncReq, func(b *wire.Buffer, q SyncReq) error {
		b.String(string(q.Group))
		b.String(string(q.From))
		encView(b, q.View)
		return nil
	}, func(r *wire.Reader) (SyncReq, error) {
		d := reader{r: r}
		q := SyncReq{Group: d.group(), From: d.node(), View: d.view()}
		return q, d.err
	})
	register(tagSyncResp, encSyncResp, decSyncResp)
	register(tagSnapshot, func(b *wire.Buffer, s Snapshot) error {
		b.String(string(s.Group))
		b.Uvarint(s.Seq)
		b.Bytes(s.Data)
		return nil
	}, func(r *wire.Reader) (Snapshot, error) {
		d := reader{r: r}
		s := Snapshot{Group: d.group(), Seq: d.uvarint(), Data: d.bytes()}
		return s, d.err
	})
	register(tagHint, func(b *wire.Buffer, h Hint) error {
		b.String(string(h.Group))
		if err := encID(b, h.ID, h.Call); err != nil {
			return err
		}
		b.String(string(h.Origin))
		b.Uvarint(h.Seq)
		return nil
	}, func(r *wire.Reader) (Hint, error) {
		d := reader{r: r}
		h := Hint{Group: d.group()}
		h.ID, h.Call = d.id()
		h.Origin, h.Seq = d.node(), d.uvarint()
		return h, d.err
	})
}

// register installs T's binary codec under tag, and the gob twin the
// differential tests hold it against.
func register[T any](tag uint64, enc func(*wire.Buffer, T) error, dec func(*wire.Reader) (T, error)) {
	var prototype T
	wire.RegisterPayload(prototype)
	wire.RegisterBinaryPayload(tag, prototype,
		func(b *wire.Buffer, v any) error { return enc(b, v.(T)) },
		func(r *wire.Reader) (any, error) {
			v, err := dec(r)
			if err != nil {
				return nil, err
			}
			return v, nil
		})
}

// reader reads the fields of a frame in order. The first error sticks:
// every later read returns the zero value, and the decoder returns it.
type reader struct {
	r   *wire.Reader
	err error
}

func (d *reader) uvarint() (v uint64) {
	if d.err == nil {
		v, d.err = d.r.Uvarint()
	}
	return v
}

// ident reads a name that repeats in every frame of a connection — a group,
// a node — through the stream's intern table.
func (d *reader) ident() (s string) {
	if d.err == nil {
		s, d.err = d.r.Ident()
	}
	return s
}

func (d *reader) group() wire.GroupID { return wire.GroupID(d.ident()) }
func (d *reader) node() wire.NodeID   { return wire.NodeID(d.ident()) }

func (d *reader) bytes() (p []byte) {
	if d.err == nil {
		p, d.err = d.r.Bytes()
	}
	return p
}

func (d *reader) bool() (v bool) {
	if d.err == nil {
		v, d.err = d.r.Bool()
	}
	return v
}

func (d *reader) any() (v any) {
	if d.err == nil {
		v, d.err = d.r.Any()
	}
	return v
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

func (d *reader) id() (id string, call uint64) {
	if call = d.uvarint(); call == 0 && d.err == nil {
		id, d.err = d.r.String()
	}
	return id, call
}

// count reads a slice length and sanity-checks it against the bytes
// remaining in the frame (every element costs at least one byte), so
// corrupt input cannot request an absurd allocation.
func (d *reader) count(what string) int {
	n := d.uvarint()
	if d.err == nil && n > uint64(d.r.Remaining()) {
		d.err = fmt.Errorf("gcs: %s count %d exceeds frame", what, n)
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

func encView(b *wire.Buffer, v View) {
	b.Uvarint(v.Epoch)
	b.Uvarint(uint64(len(v.Members)))
	for _, m := range v.Members {
		b.String(string(m))
	}
}

func (d *reader) view() View {
	v := View{Epoch: d.uvarint()}
	if n := d.count("view members"); n > 0 {
		v.Members = make([]wire.NodeID, 0, n)
		for i := 0; i < n; i++ {
			v.Members = append(v.Members, d.node())
		}
	}
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

func decSubmit(r *wire.Reader) (Submit, error) {
	d := reader{r: r}
	s := Submit{Group: d.group()}
	s.ID, s.Call = d.id()
	s.Origin, s.Payload = d.node(), d.any()
	return s, d.err
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

func decOrdered(r *wire.Reader) (Ordered, error) {
	d := reader{r: r}
	o := Ordered{Group: d.group(), Epoch: d.uvarint(), Seq: d.uvarint()}
	o.ID, o.Call = d.id()
	o.Origin, o.Payload = d.node(), d.any()
	if d.bool() {
		v := d.view()
		o.View = &v
	}
	return o, d.err
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
	d := reader{r: r}
	s := SyncResp{Group: d.group(), From: d.node(), Epoch: d.uvarint(), Delivered: d.uvarint()}
	if n := d.count("sync tail"); n > 0 {
		s.Tail = make([]Ordered, n)
		for i := 0; i < n && d.err == nil; i++ {
			s.Tail[i], d.err = decOrdered(r)
		}
	}
	if n := d.count("sync pending"); n > 0 {
		s.Pending = make([]Submit, n)
		for i := 0; i < n && d.err == nil; i++ {
			s.Pending[i], d.err = decSubmit(r)
		}
	}
	s.SnapSeq, s.Snap = d.uvarint(), d.bytes()
	return s, d.err
}
