package transport

import (
	"testing"
	"time"

	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

type ping struct{ N int }

// ping gets a binary codec so the transport benchmarks exercise the same
// fast path production payloads take; unregistered types would fall back to
// per-frame gob and measure the codec fallback instead of the transport.
func init() {
	wire.Register(100, func(b *wire.Buffer, p ping) error {
		b.Uvarint(uint64(int64(p.N)))
		return nil
	}, func(r *wire.Reader) ping { return ping{N: int(int64(r.Uvarint()))} })
}

// pump forwards everything an endpoint receives into a mailbox so tests can
// poll with timeouts without losing messages to abandoned readers. The pump
// goroutine exits when the endpoint is closed.
func pump(rt vtime.Runtime, e Endpoint) *vtime.Mailbox[wire.Message] {
	mb := vtime.NewMailbox[wire.Message](rt, "pump/"+string(e.ID()))
	rt.Go("pump/"+string(e.ID()), func() {
		for {
			m, ok := e.Recv()
			if !ok {
				mb.Close()
				return
			}
			mb.Put(m)
		}
	})
	return mb
}

func TestInprocDeliveryWithLatency(t *testing.T) {
	rt := vtime.Virtual()
	defer rt.Stop()
	net := NewInproc(rt, WithLatency(time.Millisecond))
	a := net.Endpoint("a")
	b := net.Endpoint("b")
	vtime.Run(rt, "main", func() {
		a.Send("b", ping{N: 1})
		m, ok := b.Recv()
		if !ok {
			t.Fatal("Recv: closed")
		}
		if m.From != "a" || m.To != "b" || m.Payload.(ping).N != 1 {
			t.Errorf("got %+v", m)
		}
		if now := rt.Now(); now != time.Millisecond {
			t.Errorf("delivered at %v, want 1ms", now)
		}
	})
}

func TestInprocFIFOPerSender(t *testing.T) {
	rt := vtime.Virtual()
	defer rt.Stop()
	net := NewInproc(rt) // default constant latency
	a := net.Endpoint("a")
	b := net.Endpoint("b")
	vtime.Run(rt, "main", func() {
		for i := 0; i < 20; i++ {
			a.Send("b", ping{N: i})
		}
		for i := 0; i < 20; i++ {
			m, ok := b.Recv()
			if !ok {
				t.Fatal("closed early")
			}
			if got := m.Payload.(ping).N; got != i {
				t.Fatalf("message %d arrived as %d: FIFO violated", i, got)
			}
		}
	})
}

func TestInprocSendToUnknownNodeIsDropped(t *testing.T) {
	rt := vtime.Virtual()
	defer rt.Stop()
	net := NewInproc(rt)
	a := net.Endpoint("a")
	vtime.Run(rt, "main", func() {
		a.Send("ghost", ping{N: 1}) // must not panic or wedge
		rt.Sleep(10 * time.Millisecond)
	})
}

func TestInprocCrashDropsBothDirections(t *testing.T) {
	rt := vtime.Virtual()
	defer rt.Stop()
	net := NewInproc(rt)
	a := net.Endpoint("a")
	b := net.Endpoint("b")
	vtime.Run(rt, "main", func() {
		pa, pb := pump(rt, a), pump(rt, b)
		defer func() { a.Close(); b.Close() }()
		net.Crash("b")
		a.Send("b", ping{N: 1})
		b.Send("a", ping{N: 2})
		if m, ok, _ := pa.GetTimeout(10 * time.Millisecond); ok {
			t.Errorf("a received %+v from crashed node", m)
		}
		if m, ok, _ := pb.GetTimeout(time.Millisecond); ok {
			t.Errorf("crashed b received %+v", m)
		}
		net.Restore("b")
		a.Send("b", ping{N: 3})
		m, ok, timedOut := pb.GetTimeout(10 * time.Millisecond)
		if !ok || timedOut || m.Payload.(ping).N != 3 {
			t.Errorf("after restore: got (%+v, %v, %v)", m, ok, timedOut)
		}
	})
}

func TestInprocCrashedMessagesInFlightDropped(t *testing.T) {
	rt := vtime.Virtual()
	defer rt.Stop()
	net := NewInproc(rt, WithLatency(5*time.Millisecond))
	a := net.Endpoint("a")
	b := net.Endpoint("b")
	vtime.Run(rt, "main", func() {
		pb := pump(rt, b)
		defer func() { a.Close(); b.Close() }()
		a.Send("b", ping{N: 1}) // in flight for 5ms
		rt.Sleep(time.Millisecond)
		net.Crash("b") // crashes before delivery
		if _, ok, _ := pb.GetTimeout(20 * time.Millisecond); ok {
			t.Error("message delivered to node that crashed mid-flight")
		}
	})
}

func TestInprocDropRule(t *testing.T) {
	rt := vtime.Virtual()
	defer rt.Stop()
	net := NewInproc(rt)
	a := net.Endpoint("a")
	b := net.Endpoint("b")
	vtime.Run(rt, "main", func() {
		pb := pump(rt, b)
		defer func() { a.Close(); b.Close() }()
		net.SetDropRule(func(from, to wire.NodeID) bool { return from == "a" })
		a.Send("b", ping{N: 1})
		if _, ok, _ := pb.GetTimeout(10 * time.Millisecond); ok {
			t.Error("dropped message was delivered")
		}
		net.SetDropRule(nil)
		a.Send("b", ping{N: 2})
		m, ok, _ := pb.GetTimeout(10 * time.Millisecond)
		if !ok || m.Payload.(ping).N != 2 {
			t.Errorf("after clearing rule: got (%+v, %v)", m, ok)
		}
	})
}

func TestInprocCloseUnblocksRecv(t *testing.T) {
	rt := vtime.Virtual()
	defer rt.Stop()
	net := NewInproc(rt)
	a := net.Endpoint("a")
	vtime.Run(rt, "main", func() {
		done := vtime.NewMailbox[bool](rt, "done")
		rt.Go("reader", func() {
			_, ok := a.Recv()
			done.Put(ok)
		})
		rt.Sleep(time.Millisecond)
		a.Close()
		if ok, _ := done.Get(); ok {
			t.Error("Recv after Close returned ok=true")
		}
	})
}

func TestInprocRebindReplacesEndpoint(t *testing.T) {
	rt := vtime.Virtual()
	defer rt.Stop()
	net := NewInproc(rt)
	a := net.Endpoint("a")
	old := net.Endpoint("b")
	fresh := net.Endpoint("b") // replaces old binding
	vtime.Run(rt, "main", func() {
		a.Send("b", ping{N: 7})
		m, ok := fresh.Recv()
		if !ok || m.Payload.(ping).N != 7 {
			t.Errorf("fresh binding got (%+v, %v)", m, ok)
		}
		_ = old
	})
}

func TestInprocJitterIsDeterministic(t *testing.T) {
	run := func() []time.Duration {
		rt := vtime.Virtual()
		defer rt.Stop()
		net := NewInproc(rt, WithLatency(time.Millisecond), WithJitter(time.Millisecond, 42))
		a := net.Endpoint("a")
		b := net.Endpoint("b")
		var times []time.Duration
		vtime.Run(rt, "main", func() {
			for i := 0; i < 10; i++ {
				a.Send("b", ping{N: i})
			}
			for i := 0; i < 10; i++ {
				if _, ok := b.Recv(); ok {
					times = append(times, rt.Now())
				}
			}
		})
		return times
	}
	t1, t2 := run(), run()
	if len(t1) != 10 || len(t2) != 10 {
		t.Fatalf("runs delivered %d/%d messages, want 10", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Errorf("delivery %d: %v vs %v — jitter not deterministic", i, t1[i], t2[i])
		}
	}
}
