package gcs

import (
	"testing"

	"github.com/replobj/replobj/internal/transport"
	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

// BenchmarkSequencerRound is one client call through a group of three on the
// zero-latency in-process network, on the real clock: the Submit to the
// sequencer, its two Ordered frames, the delivery at every member. 20 000
// calls go first, so that whatever the members keep per id has reached its
// steady state (a 16 384-entry id table was full and rotating, before ids
// were numbered).
func BenchmarkSequencerRound(b *testing.B) {
	const warm = 20000
	rt := vtime.Real()
	defer rt.Stop()
	net := transport.NewInproc(rt, transport.WithLatency(0))
	ids := []wire.NodeID{"g/0", "g/1", "g/2"}
	var members []*Member
	var eps []transport.Endpoint
	for _, id := range ids {
		ep := net.Endpoint(id)
		m := NewMember(rt, Config{Group: "g", Self: id, Members: ids, Send: ep.Send})
		members, eps = append(members, m), append(eps, ep)
		rt.Go("recv/"+string(id), func() {
			for {
				msg, ok := ep.Recv()
				if !ok {
					return
				}
				m.Handle(msg.From, msg.Payload)
			}
		})
	}
	cl := net.Endpoint(wire.ClientID("c1"))
	var call uint64
	round := func() {
		call++
		cl.Send(ids[0], &Submit{Group: "g", Origin: cl.ID(), Call: call, Payload: appMsg{Body: "x"}})
		for _, m := range members {
			if _, ok := m.Deliver(); !ok {
				b.Fatal("delivery stream closed")
			}
		}
	}
	vtime.Run(rt, "bench", func() {
		for i := 0; i < warm; i++ {
			round()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			round()
		}
		b.StopTimer()
		for i, m := range members {
			m.Stop()
			eps[i].Close()
		}
		cl.Close()
	})
}
