package lsa

import (
	"fmt"

	"github.com/replobj/replobj/internal/adets"
	"github.com/replobj/replobj/internal/wire"
)

// Binary wire-codec fast path for the leader's mutex-table broadcast —
// under ADETS-LSA every grant the leader records crosses the wire in one of
// these (tag range 30–39 belongs to the scheduler packages; adets uses 30).

const tagTableUpdate = 31

func init() {
	wire.RegisterBinaryPayload(tagTableUpdate, TableUpdate{},
		func(b *wire.Buffer, v any) error {
			u := v.(TableUpdate)
			b.String(string(u.From))
			b.Uvarint(uint64(len(u.Entries)))
			for _, e := range u.Entries {
				b.String(string(e.M))
				b.String(string(e.L))
			}
			return nil
		},
		func(r *wire.Reader) (any, error) {
			var u TableUpdate
			s, err := r.Ident()
			if err != nil {
				return nil, err
			}
			u.From = wire.NodeID(s)
			n, err := r.Uvarint()
			if err != nil {
				return nil, err
			}
			if n > uint64(r.Remaining()) {
				return nil, fmt.Errorf("lsa: table entry count %d exceeds frame", n)
			}
			if n > 0 {
				u.Entries = make([]TableEntry, 0, n)
				for i := uint64(0); i < n; i++ {
					var e TableEntry
					if s, err = r.Ident(); err != nil {
						return nil, err
					}
					e.M = adets.MutexID(s)
					if s, err = r.String(); err != nil {
						return nil, err
					}
					e.L = wire.LogicalID(s)
					u.Entries = append(u.Entries, e)
				}
			}
			return u, nil
		})
}
