package adets

import (
	"github.com/replobj/replobj/internal/wire"
)

// Binary wire-codec fast path for the deterministic-timeout request
// (tag range 30–39 belongs to the scheduler packages; lsa uses 31):
//
//	TimeoutMsg := Target.Logical Target.Call Mutex Cond WaitSeq

const tagTimeoutMsg = 30

func init() {
	wire.Register(tagTimeoutMsg, func(b *wire.Buffer, t TimeoutMsg) error {
		b.String(string(t.Target.Logical))
		b.Uvarint(t.Target.Call)
		b.String(string(t.Mutex))
		b.String(string(t.Cond))
		b.Uvarint(t.WaitSeq)
		return nil
	}, func(r *wire.Reader) TimeoutMsg {
		return TimeoutMsg{Target: wire.ThreadID{Logical: wire.LogicalID(r.Ident()), Call: r.Uvarint()},
			Mutex: MutexID(r.Ident()), Cond: CondID(r.Ident()), WaitSeq: r.Uvarint()}
	})
}
