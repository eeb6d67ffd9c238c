package lsa

import (
	"github.com/replobj/replobj/internal/adets"
	"github.com/replobj/replobj/internal/wire"
)

// Binary wire-codec fast path for the leader's mutex-table broadcast —
// under ADETS-LSA every grant the leader records crosses the wire in one of
// these (tag range 30–39 belongs to the scheduler packages; adets uses 30):
//
//	TableUpdate := From n×(M L.Logical L.Call)

const tagTableUpdate = 31

func init() {
	wire.Register(tagTableUpdate, func(b *wire.Buffer, u TableUpdate) error {
		b.String(string(u.From))
		b.Uvarint(uint64(len(u.Entries)))
		for _, e := range u.Entries {
			b.String(string(e.M))
			b.String(string(e.L.Logical))
			b.Uvarint(e.L.Call)
		}
		return nil
	}, func(r *wire.Reader) TableUpdate {
		u := TableUpdate{From: wire.NodeID(r.Ident())}
		u.Entries = wire.Elems(r, "table entry", 3, func(r *wire.Reader) TableEntry {
			return TableEntry{M: adets.MutexID(r.Ident()), L: wire.ThreadID{Logical: wire.LogicalID(r.Ident()), Call: r.Uvarint()}}
		})
		return u
	})
}
