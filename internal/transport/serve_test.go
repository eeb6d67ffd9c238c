package transport

import (
	"errors"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

// serveNets are the networks the Serve contract is held on: TCP on the
// wall clock, and Inproc on both clocks. fifo says whether the network
// itself delivers each sender's messages in send order: Inproc on the wall
// clock does not, its latency timers fire in any order, so there only the
// order the inbox received is kept.
var serveNets = []struct {
	name string
	fifo bool
	rt   func() vtime.Runtime
	eps  func(t *testing.T, rt vtime.Runtime, ids []wire.NodeID) []Endpoint
}{
	{"tcp", true, func() vtime.Runtime { return vtime.Real() }, func(t *testing.T, rt vtime.Runtime, ids []wire.NodeID) []Endpoint {
		addrs := make(map[wire.NodeID]string)
		for _, id := range ids {
			addrs[id] = "127.0.0.1:0"
		}
		// Deep enough that 1 000 back-to-back sends are never dropped.
		nw := NewTCP(rt, addrs, WithSendQueueDepth(4096))
		var eps []Endpoint
		for _, id := range ids {
			ep, err := nw.Listen(id)
			if err != nil {
				t.Fatalf("Listen(%s): %v", id, err)
			}
			eps = append(eps, ep)
		}
		return eps
	}},
	{"inproc-real", false, func() vtime.Runtime { return vtime.Real() }, inprocEndpoints},
	{"inproc-virtual", true, func() vtime.Runtime { return vtime.Virtual() }, inprocEndpoints},
}

func inprocEndpoints(_ *testing.T, rt vtime.Runtime, ids []wire.NodeID) []Endpoint {
	nw := NewInproc(rt, WithLatency(100*time.Microsecond))
	var eps []Endpoint
	for _, id := range ids {
		eps = append(eps, nw.Endpoint(id))
	}
	return eps
}

// onEachNet runs fn on a tracked goroutine once per network of serveNets,
// with an endpoint per id, and closes the endpoints after it.
func onEachNet(t *testing.T, ids []wire.NodeID, fn func(t *testing.T, rt vtime.Runtime, eps []Endpoint, fifo bool)) {
	for _, n := range serveNets {
		t.Run(n.name, func(t *testing.T) {
			rt := n.rt()
			defer rt.Stop()
			eps := n.eps(t, rt, ids)
			vtime.Run(rt, "test", func() {
				defer func() {
					for _, ep := range eps {
						ep.Close()
					}
				}()
				fn(t, rt, eps, n.fifo)
			})
		})
	}
}

// waitFor polls cond every millisecond of rt's clock for up to 5 s of it.
func waitFor(rt vtime.Runtime, cond func() bool) bool {
	for range 5000 {
		if cond() {
			return true
		}
		rt.Sleep(time.Millisecond)
	}
	return cond()
}

// queued is how many messages an endpoint holds for Recv.
func queued(ep Endpoint) int {
	switch ep := ep.(type) {
	case *TCPEndpoint:
		return ep.inbox.Len()
	case *inprocEndpoint:
		return ep.inbox.Len()
	}
	return 0
}

// recorder is a handler that keeps what it is handed.
type recorder struct {
	mu   sync.Mutex
	msgs []wire.Message
}

func (r *recorder) handle(m wire.Message) {
	r.mu.Lock()
	r.msgs = append(r.msgs, m)
	r.mu.Unlock()
}

func (r *recorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.msgs)
}

func TestServeHandsQueuedMessagesFirst(t *testing.T) {
	onEachNet(t, []wire.NodeID{"a", "b"}, func(t *testing.T, rt vtime.Runtime, eps []Endpoint, fifo bool) {
		a, b := eps[0], eps[1]
		const n0 = 20 // sent before Serve
		for i := range n0 {
			a.Send("b", ping{N: i})
		}
		if !waitFor(rt, func() bool { return queued(b) == n0 }) {
			t.Errorf("%d of %d messages queued before Serve", queued(b), n0)
			return
		}
		var got recorder
		b.Serve(got.handle)
		for i := n0; i < 2*n0; i++ {
			a.Send("b", ping{N: i})
		}
		if !waitFor(rt, func() bool { return got.len() == 2*n0 }) {
			t.Errorf("handler got %d of %d messages", got.len(), 2*n0)
			return
		}
		for i, m := range got.msgs {
			n := m.Payload.(ping).N
			if early := n < n0; early != (i < n0) || fifo && n != i {
				t.Errorf("message %d handed over as %+v", i, m)
				return
			}
		}
	})
}

func TestServeOneAtATimeInOrderPerSender(t *testing.T) {
	const senders, per = 3, 1000
	onEachNet(t, []wire.NodeID{"s0", "s1", "s2", "b"}, func(t *testing.T, rt vtime.Runtime, eps []Endpoint, fifo bool) {
		var inflight, overlaps atomic.Int32
		var got recorder
		eps[senders].Serve(func(m wire.Message) {
			if inflight.Add(1) > 1 {
				overlaps.Add(1)
			}
			runtime.Gosched() // widen the window another reader would need
			got.handle(m)
			inflight.Add(-1)
		})
		for i := range per {
			for _, s := range eps[:senders] {
				s.Send("b", ping{N: i})
			}
		}
		if !waitFor(rt, func() bool { return got.len() == senders*per }) {
			t.Errorf("handler got %d of %d messages", got.len(), senders*per)
			return
		}
		if n := overlaps.Load(); n > 0 {
			t.Errorf("the handler ran concurrently with itself %d times", n)
		}
		next := make(map[wire.NodeID]int)
		for _, m := range got.msgs {
			if n := m.Payload.(ping).N; fifo && n != next[m.From] {
				t.Errorf("from %s: message %d handed over where %d was due", m.From, n, next[m.From])
				return
			}
			next[m.From]++
		}
	})
}

func TestServeHandsNothingAfterClose(t *testing.T) {
	onEachNet(t, []wire.NodeID{"a", "b"}, func(t *testing.T, rt vtime.Runtime, eps []Endpoint, _ bool) {
		a, b := eps[0], eps[1]
		var got recorder
		b.Serve(got.handle)
		a.Send("b", ping{N: 1})
		want := 1
		// On TCP, also a connection from a that b reads but does not send on
		// (b dialed a first), kept open on a's side across b.Close.
		var raw *wire.Encoder
		if tb, ok := b.(*TCPEndpoint); ok {
			b.Send("a", ping{N: 0})
			conn, err := net.Dial("tcp", tb.Addr())
			if err != nil {
				t.Errorf("dial b: %v", err)
				return
			}
			defer conn.Close()
			raw = wire.NewEncoder(conn)
			if err := raw.Encode(&wire.Message{From: "a", To: "b", Payload: ping{N: 2}}); err != nil {
				t.Errorf("write to b: %v", err)
				return
			}
			want++
		}
		if !waitFor(rt, func() bool { return got.len() == want }) {
			t.Errorf("handler got %d of %d messages before Close", got.len(), want)
			return
		}
		b.Close()
		a.Send("b", ping{N: 3})
		if raw != nil {
			_ = raw.Encode(&wire.Message{From: "a", To: "b", Payload: ping{N: 4}}) // may fail: b closed it
		}
		rt.Sleep(50 * time.Millisecond)
		if n := got.len(); n != want {
			t.Errorf("handler got %d messages, %d of them after Close", n, n-want)
		}
	})
}

// TestTCPCloseEndsAcceptedConnections: a node that dialed its peer keeps
// that connection in its table and only reads the one the peer dialed back;
// Close must end that one too, or its reader outlives the endpoint and the
// peer's writer never sees the node go.
func TestTCPCloseEndsAcceptedConnections(t *testing.T) {
	rt := vtime.Real()
	defer rt.Stop()
	nw := NewTCP(rt, map[wire.NodeID]string{"a": "127.0.0.1:0", "b": "127.0.0.1:0"})
	a, err := nw.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := nw.Listen("b")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Send("a", ping{N: 1}) // b dials a

	conn, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.NewEncoder(conn).Encode(&wire.Message{From: "a", To: "b", Payload: ping{N: 2}}); err != nil {
		t.Fatal(err)
	}
	got := make(chan wire.Message, 1)
	rt.Go("recv", func() {
		if m, ok := b.Recv(); ok {
			got <- m
		}
	})
	select {
	case m := <-got:
		if m.From != "a" || m.Payload.(ping).N != 2 {
			t.Fatalf("b received %+v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("b never received the frame")
	}

	b.Close()
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("the connection b accepted is still open 2 s after b.Close")
	}
}
