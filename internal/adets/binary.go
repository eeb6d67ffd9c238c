package adets

import (
	"github.com/replobj/replobj/internal/wire"
)

// Binary wire-codec fast path for the deterministic-timeout request
// (tag range 30–39 belongs to the scheduler packages; lsa uses 31).

const tagTimeoutMsg = 30

func init() {
	wire.RegisterBinaryPayload(tagTimeoutMsg, TimeoutMsg{},
		func(b *wire.Buffer, v any) error {
			t := v.(TimeoutMsg)
			b.String(string(t.Target))
			b.String(string(t.Mutex))
			b.String(string(t.Cond))
			b.Uvarint(t.WaitSeq)
			return nil
		},
		func(r *wire.Reader) (any, error) {
			var t TimeoutMsg
			s, err := r.String()
			if err != nil {
				return nil, err
			}
			t.Target = wire.LogicalID(s)
			if s, err = r.Ident(); err != nil {
				return nil, err
			}
			t.Mutex = MutexID(s)
			if s, err = r.Ident(); err != nil {
				return nil, err
			}
			t.Cond = CondID(s)
			if t.WaitSeq, err = r.Uvarint(); err != nil {
				return nil, err
			}
			return t, nil
		})
}
