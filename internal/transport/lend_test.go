package transport_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/replobj/replobj/internal/gcs"
	"github.com/replobj/replobj/internal/obs"
	"github.com/replobj/replobj/internal/replica"
	"github.com/replobj/replobj/internal/transport"
	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

// tcpPair returns endpoints a and b of a loopback TCP network and its
// stats, closed when the test ends.
func tcpPair(t *testing.T, rt vtime.Runtime) (a, b *transport.TCPEndpoint, st *transport.Stats) {
	t.Helper()
	nw := transport.NewTCP(rt, map[wire.NodeID]string{"a": "127.0.0.1:0", "b": "127.0.0.1:0"})
	st = transport.NewStats(obs.NewRegistry(), "tcp")
	nw.SetStats(st)
	var err error
	if a, err = nw.Listen("a"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	if b, err = nw.Listen("b"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	return a, b, st
}

// TestTCPRecvBeforeServeOwnsPayloads: the reader decodes every Reply of a
// connection into the one payload it lends, its Result a window into the
// frame, so what waits in the inbox for Recv (or for Serve to hand over
// first) must be a copy that shares neither. Replies that have all arrived
// before anyone serves the endpoint read back intact, results and all —
// each sent once the one before it was read, so its frame lands where the
// last one lay in the reader's buffer.
func TestTCPRecvBeforeServeOwnsPayloads(t *testing.T) {
	rt := vtime.Real()
	defer rt.Stop()
	a, b, st := tcpPair(t, rt)
	want := []replica.Reply{
		{ID: wire.InvocationID{Logical: "client/b#1", Seq: 1}, From: "a", Result: []byte("first")},
		{ID: wire.InvocationID{Logical: "client/b#2", Seq: 2}, From: "a", Err: "second", Code: replica.CodeRedirect},
	}
	for i := 3; i <= 8; i++ {
		want = append(want, replica.Reply{ID: wire.InvocationID{Logical: "client/b", Call: uint64(i), Seq: 1}, From: "a",
			Result: []byte(fmt.Sprintf("result of call %d", i))})
	}
	for i, rep := range want {
		a.Send("b", &rep)
		for deadline := time.Now().Add(5 * time.Second); st.MsgsRecv.Value() < uint64(i+1); {
			if time.Now().After(deadline) {
				t.Fatalf("b received %d of %d frames", st.MsgsRecv.Value(), i+1)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for i := range want {
		m, ok := b.Recv()
		if !ok {
			t.Fatal("b closed")
		}
		if got, ok := m.Payload.(*replica.Reply); !ok || !reflect.DeepEqual(*got, want[i]) {
			t.Errorf("reply %d read back as %+v, want %+v", i, m.Payload, want[i])
		}
	}
}

// TestServeLendsAndClearsCell: a handler borrows the payload until it
// returns. One that keeps the pointer finds it zeroed once it has returned
// (the reader clears its cell before decoding the next frame), so it reads
// nothing a later frame put there; the Hint behind the Reply checks that
// from inside the handler, which runs after the clear on the same reader.
func TestServeLendsAndClearsCell(t *testing.T) {
	rt := vtime.Real()
	defer rt.Stop()
	a, b, _ := tcpPair(t, rt)
	rep := replica.Reply{ID: wire.InvocationID{Logical: "client/b#1", Seq: 1}, From: "a", Result: []byte("lent")}
	var kept *replica.Reply
	var seen replica.Reply
	after := make(chan replica.Reply, 1)
	b.Serve(func(m wire.Message) {
		switch p := m.Payload.(type) {
		case *replica.Reply:
			kept, seen = p, *p
		case *gcs.Hint:
			if kept != nil {
				after <- *kept
			}
		}
	})
	a.Send("b", &rep)
	a.Send("b", &gcs.Hint{Group: "g", Origin: "client/b", Call: 1, Seq: 1})
	select {
	case got := <-after:
		if !reflect.DeepEqual(seen, rep) {
			t.Errorf("the handler was lent %+v, want %+v", seen, rep)
		}
		if !reflect.DeepEqual(got, replica.Reply{}) {
			t.Errorf("the kept payload reads %+v after the handler returned, want it zeroed", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the handler never saw the Hint behind the Reply")
	}
}
