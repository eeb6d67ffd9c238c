package transport

import (
	"testing"
	"time"

	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

func TestTCPRoundTrip(t *testing.T) {
	rt := vtime.Real()
	defer rt.Stop()
	net := NewTCP(rt, map[wire.NodeID]string{
		"a": "127.0.0.1:0",
		"b": "127.0.0.1:0",
	})
	a, err := net.Listen("a")
	if err != nil {
		t.Fatalf("Listen(a): %v", err)
	}
	defer a.Close()
	b, err := net.Listen("b")
	if err != nil {
		t.Fatalf("Listen(b): %v", err)
	}
	defer b.Close()

	a.Send("b", &ping{N: 5})
	got := make(chan wire.Message, 1)
	rt.Go("recv", func() {
		m, ok := b.Recv()
		if ok {
			got <- m
		}
	})
	select {
	case m := <-got:
		if m.From != "a" || m.Payload.(*ping).N != 5 {
			t.Errorf("got %+v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("message never arrived over TCP")
	}
}

func TestTCPManyMessagesBothDirections(t *testing.T) {
	rt := vtime.Real()
	defer rt.Stop()
	net := NewTCP(rt, map[wire.NodeID]string{
		"a": "127.0.0.1:0",
		"b": "127.0.0.1:0",
	})
	a, err := net.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := net.Listen("b")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	const n = 100
	recvAll := func(e Endpoint, want int, out chan<- int) {
		for i := 0; i < want; i++ {
			m, ok := e.Recv()
			if !ok {
				return
			}
			out <- m.Payload.(*ping).N
		}
	}
	fromA, fromB := make(chan int, n), make(chan int, n)
	rt.Go("recvB", func() { recvAll(b, n, fromA) })
	rt.Go("recvA", func() { recvAll(a, n, fromB) })
	for i := 0; i < n; i++ {
		a.Send("b", &ping{N: i})
		b.Send("a", &ping{N: i + 1000})
	}
	deadline := time.After(10 * time.Second)
	seenA, seenB := 0, 0
	for seenA < n || seenB < n {
		select {
		case v := <-fromA:
			if v != seenA {
				t.Fatalf("b received %d, want %d (per-sender FIFO)", v, seenA)
			}
			seenA++
		case v := <-fromB:
			if v != seenB+1000 {
				t.Fatalf("a received %d, want %d", v, seenB+1000)
			}
			seenB++
		case <-deadline:
			t.Fatalf("timed out: %d/%d from a, %d/%d from b", seenA, n, seenB, n)
		}
	}
}

func TestTCPSendToUnknownNodeIsDropped(t *testing.T) {
	rt := vtime.Real()
	defer rt.Stop()
	net := NewTCP(rt, map[wire.NodeID]string{"a": "127.0.0.1:0"})
	a, err := net.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.Send("ghost", &ping{N: 1}) // best-effort: no panic, no block
}

func TestTCPEndpointErr(t *testing.T) {
	rt := vtime.Real()
	defer rt.Stop()
	net := NewTCP(rt, map[wire.NodeID]string{})
	ep := net.Endpoint("unregistered")
	if err := EndpointErr(ep); err == nil {
		t.Error("EndpointErr = nil for unregistered node, want error")
	}
	// broken endpoint operations are inert
	ep.Send("x", &ping{})
	if _, ok := ep.Recv(); ok {
		t.Error("broken endpoint Recv = ok")
	}
	ep.Close()

	healthy := net2healthy(t, rt)
	defer healthy.Close()
	if err := EndpointErr(healthy); err != nil {
		t.Errorf("EndpointErr on healthy endpoint = %v, want nil", err)
	}
}

func net2healthy(t *testing.T, rt vtime.Runtime) Endpoint {
	t.Helper()
	net := NewTCP(rt, map[wire.NodeID]string{"h": "127.0.0.1:0"})
	return net.Endpoint("h")
}

func TestTCPCloseUnblocksRecv(t *testing.T) {
	rt := vtime.Real()
	defer rt.Stop()
	net := NewTCP(rt, map[wire.NodeID]string{"a": "127.0.0.1:0"})
	a, err := net.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan bool, 1)
	rt.Go("recv", func() {
		_, ok := a.Recv()
		done <- ok
	})
	time.Sleep(10 * time.Millisecond)
	a.Close()
	select {
	case ok := <-done:
		if ok {
			t.Error("Recv after Close = ok")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv never unblocked after Close")
	}
	a.Close() // double close is a no-op
}
