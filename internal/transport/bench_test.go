package transport

import (
	"testing"

	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

func benchPair(b *testing.B, opts ...TCPOption) (*TCPEndpoint, *TCPEndpoint, func()) {
	b.Helper()
	rt := vtime.Real()
	net := NewTCP(rt, map[wire.NodeID]string{
		"a": "127.0.0.1:0",
		"b": "127.0.0.1:0",
	}, opts...)
	a, err := net.Listen("a")
	if err != nil {
		b.Fatal(err)
	}
	bb, err := net.Listen("b")
	if err != nil {
		b.Fatal(err)
	}
	return a, bb, func() {
		a.Close()
		bb.Close()
		rt.Stop()
	}
}

// BenchmarkTCPLoopbackRoundTrip measures one full send→recv→echo→recv
// cycle over loopback TCP: framing, the encode at Send, writer goroutine
// and kernel socket in both directions.
func BenchmarkTCPLoopbackRoundTrip(b *testing.B) {
	a, bb, stop := benchPair(b)
	defer stop()
	go func() {
		for {
			m, ok := bb.Recv()
			if !ok {
				return
			}
			bb.Send(m.From, m.Payload)
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Send("b", &ping{N: i})
		if _, ok := a.Recv(); !ok {
			b.Fatal("endpoint closed mid-benchmark")
		}
	}
}

// BenchmarkTCPLoopbackBurst measures pipelined one-way throughput: the
// sender encodes a window of messages into the connection's pending bytes
// and the writer goroutine writes whatever is pending at once. This is the
// path that batching optimizes — compare ns/op with the round-trip
// benchmark's serial sends.
func BenchmarkTCPLoopbackBurst(b *testing.B) {
	const window = 256
	a, bb, stop := benchPair(b, WithSendQueueDepth(2*window))
	defer stop()
	got := make(chan struct{}, window)
	go func() {
		for {
			if _, ok := bb.Recv(); !ok {
				return
			}
			got <- struct{}{}
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	inFlight := 0
	for i := 0; i < b.N; i++ {
		for inFlight >= window {
			<-got
			inFlight--
		}
		a.Send("b", &ping{N: i})
		inFlight++
	}
	for inFlight > 0 {
		<-got
		inFlight--
	}
}
