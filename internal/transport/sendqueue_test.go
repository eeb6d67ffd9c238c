package transport

import (
	"net"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/replobj/replobj/internal/obs"
	"github.com/replobj/replobj/internal/obs/tracing"
	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

// blob is a numbered payload of any size. A few dozen 64 KiB blobs fill a
// loopback socket's kernel buffers, so a peer that does not read stalls the
// writer behind them.
type blob struct {
	N int
	B []byte
}

// TraceCtx makes a blob a traced payload: trace N, a valid context from 1.
func (p blob) TraceCtx() tracing.Context {
	return tracing.Context{TraceID: uint64(p.N), Span: uint64(p.N)}
}

// unregistered has no codec, so it does not encode, top-level or nested.
type unregistered struct{ N int }

// wrapper carries a nested payload, which its codec writes with Buffer.Any.
type wrapper struct{ Inner any }

func init() {
	wire.Register(101, func(b *wire.Buffer, p blob) error {
		b.Uvarint(uint64(p.N))
		b.Bytes(p.B)
		return nil
	}, func(r *wire.Reader) blob { return blob{N: int(r.Uvarint()), B: r.Bytes()} })
	wire.Register(102, func(b *wire.Buffer, w wrapper) error { return b.Any(w.Inner) },
		func(r *wire.Reader) wrapper { return wrapper{Inner: r.Any()} })
}

// rawPeer listens on loopback and hands over every connection it accepts
// without reading from it: a peer that stalls until the test reads.
func rawPeer(t *testing.T) (addr string, accepted <-chan net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan net.Conn, 4)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				close(ch)
				return
			}
			ch <- c
		}
	}()
	t.Cleanup(func() {
		_ = ln.Close()
		for c := range ch {
			_ = c.Close()
		}
	})
	return ln.Addr().String(), ch
}

// stalledSender is endpoint "a" of a network whose node "peer" is a raw
// listener, with stats on and the given send queue depth.
func stalledSender(t *testing.T, depth int) (a *TCPEndpoint, st *Stats, accepted <-chan net.Conn) {
	t.Helper()
	addr, accepted := rawPeer(t)
	rt := vtime.Real()
	t.Cleanup(rt.Stop)
	nw := NewTCP(rt, map[wire.NodeID]string{"a": "127.0.0.1:0", "peer": addr}, WithSendQueueDepth(depth))
	st = NewStats(obs.NewRegistry(), "tcp")
	nw.SetStats(st)
	a, err := nw.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	return a, st, accepted
}

// sendAll sends frames numbered blobs to "peer", every big-th one carrying
// 64 KiB, and fails the test if the sends do not all return within 5 s.
func sendAll(t *testing.T, a *TCPEndpoint, frames, big int) {
	t.Helper()
	body := make([]byte, 64<<10)
	done := make(chan time.Duration, 1)
	go func() {
		var slowest time.Duration
		for i := range frames {
			p := blob{N: i}
			if i%big == 0 {
				p.B = body
			}
			start := time.Now()
			a.Send("peer", &p)
			slowest = max(slowest, time.Since(start))
		}
		done <- slowest
	}()
	select {
	case slowest := <-done:
		if slowest > time.Second {
			t.Errorf("the slowest Send took %v", slowest)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%d Sends to a peer that does not read did not return in 5 s", frames)
	}
}

// settle waits until the writer has stopped making progress (MsgsSent
// still for 100 ms) and returns MsgsSent.
func settle(t *testing.T, st *Stats) uint64 {
	t.Helper()
	last, still := st.MsgsSent.Value(), 0
	for deadline := time.Now().Add(10 * time.Second); still < 10; {
		if time.Now().After(deadline) {
			t.Fatal("the writer never stopped making progress")
		}
		time.Sleep(10 * time.Millisecond)
		if v := st.MsgsSent.Value(); v == last {
			still++
		} else {
			last, still = v, 0
		}
	}
	return last
}

// TestTCPSendToStalledPeerNeverBlocks pins the send contract against a
// peer that accepts and never reads: every Send returns at once, the
// connection holds at most its queue depth, the frames stuck in the socket
// write included, the overflow is counted in Stats.Dropped, and Close ends
// the writer and counts what it still held as dropped.
func TestTCPSendToStalledPeerNeverBlocks(t *testing.T) {
	const depth, frames = 8, 256
	a, st, _ := stalledSender(t, depth)
	before := runtime.NumGoroutine()
	sendAll(t, a, frames, 1)
	sent := settle(t, st)
	if sent == frames {
		t.Fatalf("all %d frames of 64 KiB were written: the peer never stalled the writer", frames)
	}
	dropped := st.Dropped.Value()
	if held := frames - sent - dropped; held > depth {
		t.Errorf("%d frames held (%d written, %d dropped), want at most the queue depth %d, the stalled write's included",
			held, sent, dropped, depth)
	}
	if dropped == 0 {
		t.Error("no frame counted in Stats.Dropped although the queue overflowed")
	}

	a.Close()
	deadline := time.Now().Add(5 * time.Second)
	for st.MsgsSent.Value()+st.Dropped.Value() != frames || runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("5 s after Close: %d written + %d dropped of %d frames, %d goroutines (%d before the first Send)",
				st.MsgsSent.Value(), st.Dropped.Value(), frames, runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTCPSendQueueFIFOBehindBlockedWrite: frames that queue behind a write
// the peer stalls, coalesced into bursts once it drains, reach the peer in
// the order they were sent, none dropped.
func TestTCPSendQueueFIFOBehindBlockedWrite(t *testing.T) {
	const frames = 1024
	a, st, accepted := stalledSender(t, frames)
	sendAll(t, a, frames, 4)
	if sent := settle(t, st); sent == frames {
		t.Fatalf("all %d frames were written: nothing queued behind a blocked write", frames)
	}
	conn := <-accepted
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	dec := wire.NewDecoder(conn)
	for i := range frames {
		var m wire.Message
		if err := dec.Decode(&m); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got := m.Payload.(*blob).N; got != i {
			t.Fatalf("frame %d carried blob %d: the connection is not FIFO", i, got)
		}
	}
	if d := st.Dropped.Value(); d != 0 {
		t.Errorf("%d frames dropped with a queue as deep as the burst", d)
	}
}

// TestTCPFrameThatFailsToEncodeIsDroppedAlone: a payload that does not
// encode — a nil *blob, a payload of a type without a codec, or one nested
// in a payload that has one — is dropped and counted on its own at Send,
// with spans on too, where Send reads a traced payload's context. The
// frames around them arrive, each with its xport span, and the connection
// stays up.
func TestTCPFrameThatFailsToEncodeIsDroppedAlone(t *testing.T) {
	rt := vtime.Real()
	t.Cleanup(rt.Stop)
	nw := NewTCP(rt, map[wire.NodeID]string{"a": "127.0.0.1:0", "b": "127.0.0.1:0"})
	st := NewStats(obs.NewRegistry(), "tcp")
	st.Spans = tracing.NewCollector(16)
	nw.SetStats(st)
	a, err := nw.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	b, err := nw.Listen("b")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	got := make(chan int, 5)
	b.Serve(func(m wire.Message) {
		n := -1 // a payload that should not have encoded
		if p, ok := m.Payload.(*blob); ok {
			n = p.N
		}
		got <- n
	})
	a.Send("b", &blob{N: 1})
	a.Send("b", (*blob)(nil))
	a.Send("b", &unregistered{N: 3})
	a.Send("b", &wrapper{Inner: unregistered{N: 4}})
	a.Send("b", &blob{N: 2})
	for _, want := range []int{1, 2} {
		select {
		case n := <-got:
			if n != want {
				t.Fatalf("b received blob %d, want %d", n, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("blob %d never arrived: a frame that failed to encode took it along", want)
		}
	}
	if d, cd := st.Dropped.Value(), st.ConnDrops.Value(); d != 3 || cd != 0 {
		t.Errorf("%d frames dropped and %d connections retired, want the three that failed to encode and none", d, cd)
	}
	settle(t, st) // the spans are recorded once the writes have returned
	var traces []uint64
	for _, sp := range st.Spans.Snapshot() {
		if sp.Name == "xport" {
			traces = append(traces, sp.Trace)
		}
	}
	if !slices.Equal(traces, []uint64{1, 2}) {
		t.Errorf("xport spans of traces %v, want 1 and 2", traces)
	}
}
