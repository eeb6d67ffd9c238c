package transport_test

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/replobj/replobj/internal/gcs"
	"github.com/replobj/replobj/internal/replica"
	"github.com/replobj/replobj/internal/transport"
	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

// TestSlabKeptPayloadsOverTCP: the nested payload of a Submit a TCP reader
// lends is the handler's to keep, with no copy: the reader carves it from
// its stream's slab, which it never writes again once it has handed an
// element out. A handler keeps every nested *Request it is lent, and once
// thousands more frames have come through the same connection each still
// holds what was sent. Its Args, some over the carve limit, end at their
// length.
func TestSlabKeptPayloadsOverTCP(t *testing.T) {
	const calls, burst = 2000, 100
	rt := vtime.Real()
	defer rt.Stop()
	nw := transport.NewTCP(rt, map[wire.NodeID]string{"g/0": "127.0.0.1:0", "client/c1": "127.0.0.1:0"})
	to, err := nw.Listen("g/0")
	if err != nil {
		t.Fatal(err)
	}
	defer to.Close()
	from, err := nw.Listen("client/c1")
	if err != nil {
		t.Fatal(err)
	}
	defer from.Close()
	request := func(i int) replica.Request {
		n := 1 + i%40
		if i%97 == 0 {
			n = 600
		}
		return replica.Request{ID: wire.InvocationID{Logical: "client/c1", Call: uint64(i + 1)}, Group: "g",
			Method: "add", Args: bytes.Repeat([]byte{byte(i)}, n), Kind: replica.KindClient, ReplyTo: "client/c1"}
	}
	var mu sync.Mutex
	var kept []*replica.Request
	to.Serve(func(m wire.Message) {
		sub, ok := m.Payload.(*gcs.Submit)
		if !ok {
			t.Errorf("received a %T", m.Payload)
			return
		}
		q, ok := sub.Payload.(*replica.Request)
		if !ok {
			t.Errorf("a Submit nests a %T, want a *replica.Request", sub.Payload)
			return
		}
		mu.Lock()
		kept = append(kept, q)
		mu.Unlock()
	})
	received := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(kept)
	}
	var sub gcs.Submit
	var req replica.Request
	for i := 0; i < calls; i += burst { // a burst at a time: no frame waits past the send queue
		for j := i; j < i+burst; j++ {
			req = request(j)
			sub = gcs.Submit{Group: "g", Origin: "client/c1", Call: uint64(j + 1), Payload: &req}
			from.Send("g/0", &sub)
		}
		for deadline := time.Now().Add(5 * time.Second); received() < i+burst; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d submits received", received(), i+burst)
			}
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for i, q := range kept {
		if want := request(i); !reflect.DeepEqual(*q, want) {
			t.Fatalf("request %d reads %s", i, fmt.Sprintf("%+v, want %+v", *q, want))
		}
		if cap(q.Args) != len(q.Args) {
			t.Errorf("request %d: args of %d bytes have capacity %d", i, len(q.Args), cap(q.Args))
		}
	}
}
