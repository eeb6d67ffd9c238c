package gcs

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/replobj/replobj/internal/faultnet"
	"github.com/replobj/replobj/internal/transport"
	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

// TestOrderedCellReuse: the sequencer sends each Ordered from a cell of its
// free list, which the event's finish zeroes and puts back once the sends
// have returned; the next order takes it again at once — the next
// Broadcast, or the second order of one event, which holds two cells.
// Every copy a follower receives, delayed, duplicated or repaired, carries
// the message it was ordered for, and every member delivers the same
// order: over TCP, over Inproc, and through faultnet.
func TestOrderedCellReuse(t *testing.T) {
	const n = 8
	nodes := []wire.NodeID{"g/0", "g/1", "g/2"}
	for _, nc := range []struct {
		name string
		open func() (vtime.Runtime, transport.Network)
	}{
		{"tcp", func() (vtime.Runtime, transport.Network) {
			rt := vtime.Real()
			addrs := map[wire.NodeID]string{}
			for _, id := range nodes {
				addrs[id] = "127.0.0.1:0"
			}
			return rt, transport.NewTCP(rt, addrs)
		}},
		{"inproc", func() (vtime.Runtime, transport.Network) {
			rt := vtime.Virtual()
			return rt, transport.NewInproc(rt)
		}},
		{"faultnet delay and duplicate", func() (vtime.Runtime, transport.Network) {
			rt := vtime.Virtual()
			prof := faultnet.Profile{Name: "reuse", DupPerMill: 500, DelayPerMill: 500}
			return rt, faultnet.New(rt, transport.NewInproc(rt), prof, 1)
		}},
	} {
		t.Run(nc.name, func(t *testing.T) {
			rt, net := nc.open()
			defer rt.Stop()
			var mu sync.Mutex
			var received []Ordered // every copy a follower was sent
			var members []*Member
			var eps []transport.Endpoint
			for _, id := range nodes {
				ep := net.Endpoint(id)
				m := NewMember(rt, Config{Group: "g", Self: id, Members: nodes, Send: ep.Send})
				ep.Serve(func(msg wire.Message) {
					if o, ok := msg.Payload.(*Ordered); ok {
						mu.Lock()
						received = append(received, *o)
						mu.Unlock()
					}
					m.Handle(msg.From, msg.Payload)
				})
				members, eps = append(members, m), append(eps, ep)
			}
			var want []string
			for i := range n {
				want = append(want, fmt.Sprint("m", i))
			}
			vtime.Run(rt, "main", func() {
				defer func() {
					for i, m := range members {
						m.Stop()
						eps[i].Close()
					}
				}()
				seq := members[0]
				for _, id := range want[:n-2] {
					seq.Broadcast(id, &appMsg{Body: id})
				}
				// Two orders in one event: two cells, released together.
				var act actions
				seq.rt.Lock()
				for _, id := range want[n-2:] {
					seq.orderLocked(Submit{Group: "g", ID: id, Origin: seq.cfg.Self, Payload: &appMsg{Body: id}}, nil, &act)
				}
				seq.rt.Unlock()
				act.finish(seq)
				for _, m := range members {
					if got := ids(take(t, rt, m, n)); !slices.Equal(got, want) {
						t.Errorf("%s delivered %q, want %q", m.cfg.Self, got, want)
					}
				}
				rt.Sleep(20 * time.Millisecond) // late copies arrive
				seq.cells.mu.Lock()
				if kept := len(seq.cells.free); kept == 0 || kept > maxFreeOrdered {
					t.Errorf("the sequencer keeps %d free cells, want 1 to %d", kept, maxFreeOrdered)
				}
				seq.cells.mu.Unlock()
			})
			mu.Lock()
			defer mu.Unlock()
			for _, o := range received {
				if body, _ := o.Payload.(*appMsg); o.ID == "" || body == nil || body.Body != o.ID {
					t.Errorf("a follower received %+v: the cell was read after Send returned", o)
				}
			}
			if len(received) < 2*n {
				t.Errorf("the followers received %d Ordered copies, want at least %d", len(received), 2*n)
			}
		})
	}
}
