package transport_test

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/replobj/replobj/internal/faultnet"
	"github.com/replobj/replobj/internal/gcs"
	"github.com/replobj/replobj/internal/replica"
	"github.com/replobj/replobj/internal/transport"
	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

// borrowNet builds a sender endpoint and two receivers on one network.
type borrowNet struct {
	name string
	open func(t *testing.T) (rt vtime.Runtime, from transport.Endpoint, to []transport.Endpoint, fn *faultnet.Network)
}

// borrowNets are the networks a sender's payload crosses: TCP encodes it
// at Send, Inproc delivers a copy later, and faultnet forwards delayed and
// duplicated copies later still.
var borrowNets = []borrowNet{
	{"tcp", func(t *testing.T) (vtime.Runtime, transport.Endpoint, []transport.Endpoint, *faultnet.Network) {
		rt := vtime.Real()
		nw := transport.NewTCP(rt, map[wire.NodeID]string{"a": "127.0.0.1:0", "b": "127.0.0.1:0", "c": "127.0.0.1:0"})
		var eps []transport.Endpoint
		for _, id := range []wire.NodeID{"a", "b", "c"} {
			ep, err := nw.Listen(id)
			if err != nil {
				t.Fatal(err)
			}
			eps = append(eps, ep)
		}
		return rt, eps[0], eps[1:], nil
	}},
	{"inproc", func(*testing.T) (vtime.Runtime, transport.Endpoint, []transport.Endpoint, *faultnet.Network) {
		rt := vtime.Virtual()
		nw := transport.NewInproc(rt)
		return rt, nw.Endpoint("a"), []transport.Endpoint{nw.Endpoint("b"), nw.Endpoint("c")}, nil
	}},
	{"faultnet delay and duplicate", func(*testing.T) (vtime.Runtime, transport.Endpoint, []transport.Endpoint, *faultnet.Network) {
		rt := vtime.Virtual()
		prof := faultnet.Profile{Name: "borrow", DupPerMill: 500, DelayPerMill: 500}
		nw := faultnet.New(rt, transport.NewInproc(rt), prof, 1)
		return rt, nw.Endpoint("a"), []transport.Endpoint{nw.Endpoint("b"), nw.Endpoint("c")}, nw
	}},
}

// borrowCell is a payload cell a sender reuses: fill writes round i's value
// into cell, and the poison for i < 0.
type borrowCell struct {
	name string
	cell any
	fill func(i int)
}

func borrowCells() []borrowCell {
	rep, sub, ord := new(replica.Reply), new(gcs.Submit), new(gcs.Ordered)
	return []borrowCell{
		{"Reply", rep, func(i int) {
			*rep = replica.Reply{ID: wire.InvocationID{Logical: wire.LogicalID(fmt.Sprintf("client/c#%d", i)), Seq: 1},
				From: "a", Result: []byte(fmt.Sprint("result ", i))}
		}},
		{"Submit", sub, func(i int) {
			*sub = gcs.Submit{Group: "g", Origin: "client/c", Call: uint64(i + 1), Payload: replica.Request{
				ID: wire.InvocationID{Logical: wire.LogicalID(fmt.Sprintf("client/c#%d", i))}, Group: "g",
				Method: "m", Args: []byte(fmt.Sprint("args ", i)), Kind: replica.KindClient, ReplyTo: "client/c"}}
		}},
		{"Ordered", ord, func(i int) {
			*ord = gcs.Ordered{Group: "g", Epoch: 1, Seq: uint64(i + 1), Origin: "client/c", Call: uint64(i + 1),
				Payload: replica.Request{Group: "g", Method: "m", Args: []byte(fmt.Sprint("args ", i))}}
		}},
	}
}

// keepLent copies a payload a Serve handler was lent so that it outlives
// the loan: an Own copy, and over TCP a Reply's Result, which the reader
// lends from the frame, copied too.
func keepLent(p any) any {
	p = wire.Own(p)
	if r, ok := p.(*replica.Reply); ok {
		r.Result = bytes.Clone(r.Result)
	}
	return p
}

// TestSendBorrowsPayload pins the send contract every reused cell relies
// on: Send borrows its payload only until it returns. The sender fills one
// cell, sends it to two receivers, and overwrites it at once, round after
// round; every copy any receiver gets holds a value that was sent, never a
// later round's or the poison — over TCP, which encodes at Send, over
// Inproc, which keeps a copy to deliver later, and through faultnet, whose
// delayed and duplicated copies are forwarded after Send has returned.
func TestSendBorrowsPayload(t *testing.T) {
	const rounds = 6
	for _, bn := range borrowNets {
		for _, bc := range borrowCells() {
			t.Run(bn.name+"/"+bc.name, func(t *testing.T) {
				rt, from, to, fn := bn.open(t)
				defer rt.Stop()
				var mu sync.Mutex
				got := map[wire.NodeID][]any{}
				for _, ep := range to {
					defer ep.Close()
					ep.Serve(func(m wire.Message) {
						mu.Lock()
						got[m.To] = append(got[m.To], keepLent(m.Payload))
						mu.Unlock()
					})
				}
				defer from.Close()
				var sent []any
				vtime.Run(rt, "borrow", func() {
					for i := range rounds {
						bc.fill(i)
						sent = append(sent, wire.Own(bc.cell))
						for _, ep := range to {
							from.Send(ep.ID(), bc.cell)
						}
						bc.fill(-1)
					}
					// Every round reaches every receiver at least once;
					// a duplicate may come later still.
					for deadline := rt.Now() + 5*time.Second; rt.Now() < deadline; rt.Sleep(time.Millisecond) {
						mu.Lock()
						n := min(len(got[to[0].ID()]), len(got[to[1].ID()]))
						mu.Unlock()
						if n >= rounds {
							break
						}
					}
					rt.Sleep(20 * time.Millisecond)
				})
				mu.Lock()
				defer mu.Unlock()
				for _, ep := range to {
					seen := make([]int, rounds)
				copies:
					for _, p := range got[ep.ID()] {
						for i, want := range sent {
							if reflect.DeepEqual(p, want) {
								seen[i]++
								continue copies
							}
						}
						t.Errorf("%s received %+v, which was never sent: the cell was read after Send returned", ep.ID(), p)
					}
					for i, n := range seen {
						if n == 0 {
							t.Errorf("%s never received round %d", ep.ID(), i)
						}
					}
				}
				if fn != nil {
					if c := fn.Counts(); c.Duplicated == 0 || c.Delayed == 0 {
						t.Errorf("faultnet duplicated %d and delayed %d messages: the seed must exercise both", c.Duplicated, c.Delayed)
					}
				}
			})
		}
	}
}
