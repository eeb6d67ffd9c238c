package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/replobj/replobj/internal/obs/tracing"
	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

// Per-connection send-path bounds. The depth is tunable through
// WithSendQueueDepth; EXPERIMENTS.md documents the trade-offs.
const (
	// defaultSendQueueDepth bounds the frames waiting on a connection:
	// encoded by Send and not yet written. Send is best-effort: when the
	// writer goroutine falls behind and that many wait, further messages
	// are dropped (and counted) rather than blocking the protocol layers.
	defaultSendQueueDepth = 512
	// maxPooledBurst bounds the buffers burstPool keeps: a backlog of
	// snapshot-sized frames is left to the collector.
	maxPooledBurst = 256 << 10
)

// TCPNetwork is a Network over real TCP connections. Node addresses come
// from a static registry, mirroring a deployment descriptor. It must be
// used with vtime.Real(): connection reads block outside the virtual
// kernel's knowledge, so it cannot participate in simulated time.
type TCPNetwork struct {
	rt             vtime.Runtime
	sendQueueDepth int

	// stats is read on every Send of every endpoint of the network, so it
	// is published without a lock.
	stats atomic.Pointer[Stats]

	mu    sync.Mutex
	addrs map[wire.NodeID]string
}

var _ Network = (*TCPNetwork)(nil)

// TCPOption tunes a TCPNetwork at construction time.
type TCPOption func(*TCPNetwork)

// WithSendQueueDepth sets how many frames may wait on each connection,
// encoded by Send and not yet written (default 512). Send never blocks;
// when that many wait, the message is dropped and counted in
// Stats.Dropped.
func WithSendQueueDepth(n int) TCPOption {
	return func(t *TCPNetwork) { t.sendQueueDepth = n }
}

// NewTCP returns a TCP network using the given node→address registry.
func NewTCP(rt vtime.Runtime, addrs map[wire.NodeID]string, opts ...TCPOption) *TCPNetwork {
	cp := make(map[wire.NodeID]string, len(addrs))
	for k, v := range addrs {
		cp[k] = v
	}
	n := &TCPNetwork{
		rt:             rt,
		addrs:          cp,
		sendQueueDepth: defaultSendQueueDepth,
	}
	for _, o := range opts {
		o(n)
	}
	if n.sendQueueDepth < 1 {
		n.sendQueueDepth = 1
	}
	return n
}

// SetStats installs st as the network's metric sink (nil disables). Shared
// by all endpoints of this network; set it before creating endpoints so
// connections count their bytes from the start.
func (n *TCPNetwork) SetStats(st *Stats) { n.stats.Store(st) }

// countingConn wraps a net.Conn to count bytes moved in each direction.
type countingConn struct {
	net.Conn
	st *Stats
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.st.BytesRecv.Add(uint64(n))
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		c.st.BytesSent.Add(uint64(n))
	}
	return n, err
}

// wrapConn adds byte counting when stats are enabled.
func (n *TCPNetwork) wrapConn(c net.Conn) net.Conn {
	if st := n.stats.Load(); st != nil {
		return &countingConn{Conn: c, st: st}
	}
	return c
}

// Register adds or replaces a node's address. Registration may happen
// after endpoints exist: connections are dialed lazily at first send, so a
// deployment can bind every node on port 0 first and exchange the actual
// addresses afterwards.
func (n *TCPNetwork) Register(id wire.NodeID, addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.addrs[id] = addr
}

// Address returns the registered (post-Listen: actual) address of a node.
func (n *TCPNetwork) Address(id wire.NodeID) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.addrs[id]
}

// Endpoint implements Network. It starts listening on the node's registered
// address immediately; errors surface through EndpointErr.
func (n *TCPNetwork) Endpoint(id wire.NodeID) Endpoint {
	ep, err := n.Listen(id)
	if err != nil {
		return &brokenEndpoint{id: id, err: err}
	}
	return ep
}

// Listen binds id's registered address and returns its endpoint.
func (n *TCPNetwork) Listen(id wire.NodeID) (*TCPEndpoint, error) {
	n.mu.Lock()
	addr, ok := n.addrs[id]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("transport: no address registered for node %q", id)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s for %q: %w", addr, id, err)
	}
	ep := &TCPEndpoint{
		net:     n,
		id:      id,
		ln:      ln,
		inbox:   vtime.NewMailbox[wire.Message](n.rt, "tcp/"+string(id)),
		conns:   make(map[wire.NodeID]*tcpConn),
		reading: make(map[net.Conn]struct{}),
		pending: make(map[wire.NodeID][]queuedMsg),
	}
	// If the registry used port 0, record the actual bound address so peers
	// in the same process can reach this node.
	n.mu.Lock()
	n.addrs[id] = ln.Addr().String()
	n.mu.Unlock()
	n.rt.Go("tcp-accept/"+string(id), ep.acceptLoop)
	return ep, nil
}

// TCPEndpoint is one node's TCP attachment.
type TCPEndpoint struct {
	net   *TCPNetwork
	id    wire.NodeID
	ln    net.Listener
	inbox *vtime.Mailbox[wire.Message] // while nobody serves the endpoint

	serveMu sync.Mutex         // held by a reader to deliver; taken before mu and the runtime lock
	handler func(wire.Message) // nil until Serve (the reader queues a copy), a no-op after Close

	mu    sync.Mutex
	conns map[wire.NodeID]*tcpConn
	// reading is every connection a reader serves, so Close ends them all.
	reading map[net.Conn]struct{}
	// pending buffers messages to nodes with no address and no learned
	// connection yet — e.g. a reply to a client whose ordered request
	// (broadcast by the sequencer) overtook its own direct connection. A
	// client dials every replica with its first request to a group and
	// with every retransmission, not with each request, so a replica that
	// missed those holds its replies here, as copies, until the next one.
	// The buffer flushes as soon as the sender's connection is learned.
	pending map[wire.NodeID][]queuedMsg
	closed  bool
}

var _ Endpoint = (*TCPEndpoint)(nil)

// queuedMsg is a message on its way into a connection and, with span
// tracing on, when it was sent: its frame's xport span ends when the write
// returns.
type queuedMsg struct {
	msg    wire.Message
	traced bool
	at     time.Duration
}

// traceStamp is the xport span of a frame waiting for its write.
type traceStamp struct {
	ctx tracing.Context
	at  time.Duration
}

// tcpConn pairs a socket with the frames waiting for it. Send encodes each
// frame into pending; the connection's one writer goroutine (see writeLoop)
// takes the whole buffer and writes it, so protocol layers never block on
// — or interleave frames over — the socket, and a payload is read only
// while Send runs. A connection with nothing to write holds no buffer.
type tcpConn struct {
	c    net.Conn
	wake chan struct{} // one slot: frames went pending, or shutdown

	mu      sync.Mutex
	pending *[]byte      // encoded frames, from burstPool; nil while none wait
	frames  int          // frames in pending
	writing int          // frames in the writer's current Write
	stamps  []traceStamp // of the traced frames in pending (spans on only)
	closed  bool
}

// enqueue encodes m into the connection's pending bytes without blocking.
// It reports false when the connection is shut down, depth frames wait, or
// m does not encode: that frame alone is lost.
func (c *tcpConn) enqueue(m *queuedMsg, depth int) bool {
	c.mu.Lock()
	if c.closed || c.frames+c.writing >= depth {
		c.mu.Unlock()
		return false
	}
	if c.pending == nil {
		c.pending = burstPool.Get().(*[]byte)
	}
	b, err := wire.AppendMessage(*c.pending, &m.msg)
	if err == nil {
		*c.pending = b
		c.frames++
		if m.traced { // read once encoded: the payload is no nil *T
			if t, ok := m.msg.Payload.(tracing.Traced); ok && t.TraceCtx().Valid() {
				c.stamps = append(c.stamps, traceStamp{ctx: t.TraceCtx(), at: m.at})
			}
		}
	} else if c.frames == 0 {
		putBurst(c.pending)
		c.pending = nil
	}
	idle := c.frames == 1 && err == nil // the writer takes until none wait before it waits
	c.mu.Unlock()
	if idle {
		c.signal()
	}
	return err == nil
}

func (c *tcpConn) signal() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// take waits until frames are pending and hands them to the writer, which
// has finished its previous Write: the buffer, its frame count and their
// stamps, swapped for spare, the stamps the writer is done with. ok is false
// once the connection is shut down.
func (c *tcpConn) take(spare []traceStamp) (buf *[]byte, n int, stamps []traceStamp, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writing = 0
	for !c.closed {
		if c.frames > 0 {
			buf, n, stamps = c.pending, c.frames, c.stamps
			c.pending, c.frames, c.writing, c.stamps = nil, 0, n, spare[:0]
			return buf, n, stamps, true
		}
		c.mu.Unlock()
		<-c.wake
		c.mu.Lock()
	}
	return nil, 0, spare, false
}

// shutdown closes the socket and ends the writer goroutine, which counts
// the frames still pending as dropped. It reports whether this call did it.
func (c *tcpConn) shutdown() bool {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return false
	}
	c.closed = true
	c.mu.Unlock()
	c.signal()
	_ = c.c.Close()
	return true
}

// newConn registers a writer goroutine for raw and returns its handle.
func (e *TCPEndpoint) newConn(to wire.NodeID, raw net.Conn) *tcpConn {
	c := &tcpConn{c: raw, wake: make(chan struct{}, 1)}
	e.net.rt.Go("tcp-write/"+string(e.id)+"->"+string(to), func() { e.writeLoop(to, c) })
	return c
}

// burstPool holds the connections' pending buffers, shared by every
// connection of the process: a connection holds one only while frames wait
// or are being written.
var burstPool = sync.Pool{New: func() any { return new([]byte) }}

func putBurst(b *[]byte) {
	if b != nil && cap(*b) <= maxPooledBurst {
		*b = (*b)[:0]
		burstPool.Put(b)
	}
}

// writeLoop writes what Send encoded: every frame pending when it looks,
// in one Write — one syscall per burst rather than one per message. A frame
// never waits on future traffic: the loop takes the buffer as soon as a
// frame is pending and its previous Write has returned. Messages count as
// sent only once their write succeeds. On a write error the connection is
// retired; frames still pending when it shuts down are counted dropped.
func (e *TCPEndpoint) writeLoop(to wire.NodeID, c *tcpConn) {
	st := e.net.stats.Load()
	var stamps []traceStamp
	for {
		buf, n, taken, ok := c.take(stamps)
		stamps = taken
		if !ok {
			break
		}
		_, err := c.c.Write(*buf)
		putBurst(buf)
		if err != nil {
			if st != nil {
				st.Dropped.Add(uint64(n))
			}
			e.dropConn(to, c) // shuts c down: the loop ends at the next take
			continue
		}
		if st != nil {
			st.MsgsSent.Add(uint64(n))
		}
		if len(stamps) > 0 {
			// Send→write residency of every traced frame in the burst
			// (socket flight time is not observable from one side; the
			// wait for the writer is the tunable part).
			now := e.net.rt.Now()
			for _, f := range stamps {
				st.Spans.Record(tracing.Span{
					Trace:  f.ctx.TraceID,
					ID:     tracing.NewSpanID(f.ctx.TraceID, "xport", string(e.id), f.at),
					Parent: f.ctx.Span,
					Name:   "xport",
					Node:   string(e.id),
					Detail: string(to),
					Start:  f.at,
					Dur:    now - f.at,
				})
			}
		}
	}
	c.mu.Lock()
	left := c.frames
	putBurst(c.pending)
	c.pending, c.frames, c.stamps = nil, 0, nil
	c.mu.Unlock()
	if st != nil {
		st.Dropped.Add(uint64(left))
	}
}

// ID implements Endpoint.
func (e *TCPEndpoint) ID() wire.NodeID { return e.id }

// Addr returns the actual listening address.
func (e *TCPEndpoint) Addr() string { return e.ln.Addr().String() }

// Send implements Endpoint: best-effort and non-blocking. The frame is
// encoded into the connection's pending bytes before Send returns, so the
// payload is only borrowed; if too many frames wait, the connection is
// gone or the payload does not encode, the message is dropped and counted.
// Messages to nodes that are neither registered nor connected yet are
// buffered briefly, as copies (see pending).
func (e *TCPEndpoint) Send(to wire.NodeID, payload any) {
	st := e.net.stats.Load()
	qm := queuedMsg{msg: wire.Message{From: e.id, To: to, Payload: payload}, traced: st != nil && st.Spans != nil}
	if qm.traced {
		qm.at = e.net.rt.Now()
	}
	conn, err := e.connTo(to)
	if err != nil {
		const maxPending = 128
		buffered := false
		e.mu.Lock()
		if !e.closed && len(e.pending[to]) < maxPending {
			qm.msg.Payload = wire.Own(payload)
			e.pending[to] = append(e.pending[to], qm)
			buffered = true
		}
		e.mu.Unlock()
		if !buffered && st != nil {
			st.Dropped.Inc()
		}
		return
	}
	if !conn.enqueue(&qm, e.net.sendQueueDepth) && st != nil {
		st.Dropped.Inc()
	}
}

// Recv implements Endpoint.
func (e *TCPEndpoint) Recv() (wire.Message, bool) {
	return e.inbox.Get()
}

// Serve implements Endpoint: each connection's reader calls h itself with
// the payload its decoder lends, and clears it once h returns. The inbox is
// drained into h first, so no reader overtakes a queued message.
func (e *TCPEndpoint) Serve(h func(wire.Message)) {
	e.serveMu.Lock()
	defer e.serveMu.Unlock()
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return
	}
	for m, ok := e.inbox.TryGet(); ok; m, ok = e.inbox.TryGet() {
		h(m)
	}
	e.handler = h
}

// Close implements Endpoint.
func (e *TCPEndpoint) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	conns, reading := e.conns, e.reading
	e.conns, e.reading = map[wire.NodeID]*tcpConn{}, nil
	e.mu.Unlock()
	_ = e.ln.Close()
	for _, c := range conns {
		c.shutdown()
	}
	for c := range reading {
		_ = c.Close()
	}
	e.serveMu.Lock() // waits for a delivery in progress; later ones are dropped
	e.handler = func(wire.Message) {}
	e.serveMu.Unlock()
	e.inbox.Close()
}

func (e *TCPEndpoint) connTo(to wire.NodeID) (*tcpConn, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, errors.New("transport: endpoint closed")
	}
	if c, ok := e.conns[to]; ok {
		e.mu.Unlock()
		return c, nil
	}
	e.mu.Unlock()

	e.net.mu.Lock()
	addr, ok := e.net.addrs[to]
	e.net.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("transport: no address for node %q", to)
	}
	dialed, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %q at %s: %w", to, addr, err)
	}
	if st := e.net.stats.Load(); st != nil {
		st.Dials.Inc()
	}
	raw := e.net.wrapConn(dialed)

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		_ = raw.Close()
		return nil, errors.New("transport: endpoint closed")
	}
	if existing, ok := e.conns[to]; ok {
		e.mu.Unlock()
		_ = raw.Close()
		return existing, nil
	}
	c := e.newConn(to, raw)
	e.conns[to] = c
	e.mu.Unlock()

	// Outgoing connections are also read: the peer may reply on the same
	// socket or, more commonly here, simply never write. Reading reaps EOFs.
	e.net.rt.Go("tcp-read/"+string(e.id), func() { e.readLoop(raw, to, c) })
	return c, nil
}

// dropConn retires a connection whose write failed, counting it in
// ConnDrops unless it was already shut down (by Close, or by its reader).
func (e *TCPEndpoint) dropConn(to wire.NodeID, c *tcpConn) {
	if e.retire(to, c) {
		if st := e.net.stats.Load(); st != nil {
			st.ConnDrops.Inc()
		}
	}
}

// retire removes c from the connection table if it is still there and
// shuts it down; it reports whether this call shut it down. The next Send
// to the node dials again, or waits in pending while the node has no
// address.
func (e *TCPEndpoint) retire(to wire.NodeID, c *tcpConn) bool {
	e.mu.Lock()
	if e.conns[to] == c {
		delete(e.conns, to)
	}
	e.mu.Unlock()
	return c.shutdown()
}

func (e *TCPEndpoint) acceptLoop() {
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		wrapped := e.net.wrapConn(conn)
		e.net.rt.Go("tcp-read/"+string(e.id), func() { e.readLoop(wrapped, "", nil) })
	}
}

// readLoop decodes conn's frames and hands them to the handler, lending it
// the payload: once the handler returns, the decoder's cell is cleared (a
// handler that kept the pointer reads zeros, and an idle connection pins no
// payload), the frame the payload may lend bytes from is let go, and the
// next frame is decoded into the cell. own is the connection
// that writes on the same socket, to node to — the one this endpoint
// dialed, or the one it learns from the first frame — and is retired when
// the socket ends, so a departed peer leaves no writer behind.
func (e *TCPEndpoint) readLoop(conn net.Conn, to wire.NodeID, own *tcpConn) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		_ = conn.Close()
		return
	}
	e.reading[conn] = struct{}{}
	e.mu.Unlock()
	st := e.net.stats.Load()
	dec := wire.NewDecoder(conn)
	learned := false
	for {
		var m wire.Message
		if err := dec.Decode(&m); err != nil {
			e.mu.Lock()
			delete(e.reading, conn)
			e.mu.Unlock()
			if own != nil {
				e.retire(to, own)
			}
			_ = conn.Close()
			return
		}
		if st != nil {
			st.MsgsRecv.Inc()
		}
		if !learned && m.From != "" {
			// Remember the sender's connection so replies can travel back
			// over it — this is how replicas answer clients that have no
			// entry in the static address registry — and flush anything
			// buffered for that sender into that connection, so flushed
			// messages get the same stats accounting as Send.
			learned = true
			e.mu.Lock()
			target, exists := e.conns[m.From]
			if !exists && !e.closed {
				target = e.newConn(m.From, conn)
				e.conns[m.From] = target
				to, own = m.From, target
			}
			flush := e.pending[m.From]
			delete(e.pending, m.From)
			e.mu.Unlock()
			for i := range flush {
				if (target == nil || !target.enqueue(&flush[i], e.net.sendQueueDepth)) && st != nil {
					st.Dropped.Inc()
				}
			}
		}
		e.serveMu.Lock()
		if e.handler != nil {
			e.handler(m)
		} else {
			// Nobody serves the endpoint yet: queue the message for Recv, or
			// for Serve to hand over first, decoded again into a payload
			// that survives the loan, lent bytes and all.
			e.inbox.Put(dec.Keep())
		}
		e.serveMu.Unlock()
		dec.Release()
	}
}

// brokenEndpoint satisfies Endpoint for nodes whose listener failed; every
// operation is inert and the error is available via EndpointErr.
type brokenEndpoint struct {
	id  wire.NodeID
	err error
}

var _ Endpoint = (*brokenEndpoint)(nil)

func (b *brokenEndpoint) ID() wire.NodeID            { return b.id }
func (b *brokenEndpoint) Send(wire.NodeID, any)      {}
func (b *brokenEndpoint) Recv() (wire.Message, bool) { return wire.Message{}, false }
func (b *brokenEndpoint) Serve(func(wire.Message))   {}
func (b *brokenEndpoint) Close()                     {}

// EndpointErr returns the bind error of an endpoint created through
// Network.Endpoint, or nil if it is healthy.
func EndpointErr(e Endpoint) error {
	if b, ok := e.(*brokenEndpoint); ok {
		return b.err
	}
	return nil
}
