package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/replobj/replobj/internal/obs/tracing"
	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

// Per-connection send-path defaults. Both are tunable through TCPOptions;
// EXPERIMENTS.md documents the trade-offs.
const (
	// defaultSendQueueDepth bounds the per-connection send queue. Send is
	// best-effort: when the writer goroutine falls behind and the queue
	// fills, further messages are dropped (and counted) rather than
	// blocking the protocol layers.
	defaultSendQueueDepth = 512
	// defaultCoalesceBytes caps how many encoded bytes the writer
	// goroutine accumulates before forcing a Flush, bounding both memory
	// and the latency a frame can sit buffered behind a burst.
	defaultCoalesceBytes = 64 << 10
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

// WithSendQueueDepth sets the length of each connection's bounded send
// queue (default 512 messages). Send enqueues without blocking; when the
// queue is full the message is dropped and counted in Stats.Dropped.
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
	ep.handler = ep.inbox.Put
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
	handler func(wire.Message) // inbox.Put until Serve, a no-op after Close

	mu    sync.Mutex
	conns map[wire.NodeID]*tcpConn
	// reading is every connection a reader serves, so Close ends them all.
	reading map[net.Conn]struct{}
	// pending buffers messages to nodes with no address and no learned
	// connection yet — e.g. a reply to a client whose ordered request
	// (broadcast by the sequencer) overtook its own direct connection. A
	// client dials every replica with its first request to a group and
	// with every retransmission, not with each request, so a replica that
	// missed those holds its replies here until the next one. The buffer
	// flushes as soon as the sender's connection is learned.
	pending map[wire.NodeID][]queuedMsg
	closed  bool
}

var _ Endpoint = (*TCPEndpoint)(nil)

// queuedMsg is one send-queue element: the message plus its enqueue time
// (zero unless span tracing is enabled), so the writer goroutine can record
// how long a frame sat queued before its flush hit the socket.
type queuedMsg struct {
	msg wire.Message
	at  time.Duration
}

// tcpConn pairs a socket with its bounded send queue. All writes go
// through the queue to a dedicated writer goroutine (see writeLoop), so
// protocol layers never block on — or interleave frames over — the socket.
type tcpConn struct {
	c net.Conn
	q chan queuedMsg

	mu     sync.Mutex
	closed bool
}

// enqueue offers m to the writer goroutine without blocking. It reports
// false when the connection is shut down or the queue is full.
func (c *tcpConn) enqueue(m queuedMsg) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return false
	}
	select {
	case c.q <- m:
		return true
	default:
		return false
	}
}

// shutdown closes the socket and the send queue, releasing the writer
// goroutine. Idempotent.
func (c *tcpConn) shutdown() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	close(c.q)
	c.mu.Unlock()
	_ = c.c.Close()
}

// newConn registers a writer goroutine for raw and returns its queue
// handle.
func (e *TCPEndpoint) newConn(to wire.NodeID, raw net.Conn) *tcpConn {
	c := &tcpConn{c: raw, q: make(chan queuedMsg, e.net.sendQueueDepth)}
	e.net.rt.Go("tcp-write/"+string(e.id)+"->"+string(to), func() { e.writeLoop(to, c) })
	return c
}

// writeLoop drains the connection's send queue, coalescing every frame
// already queued into a single Flush — one syscall per burst rather than
// one per message. A frame never waits on future traffic: the loop flushes
// as soon as the queue goes idle or the coalesce byte budget fills.
// Messages count as sent only once their flush succeeds. On any encode or
// flush error the connection is retired and everything still queued is
// counted dropped.
func (e *TCPEndpoint) writeLoop(to wire.NodeID, c *tcpConn) {
	st := e.net.stats.Load()
	enc := wire.NewEncoder(c.c)
	var inflight []queuedMsg // traced frames awaiting flush (spans on only)
	track := func(qm queuedMsg) {
		if st == nil || st.Spans == nil {
			return
		}
		if t, ok := qm.msg.Payload.(tracing.Traced); ok {
			if t.TraceCtx().Valid() {
				inflight = append(inflight, qm)
			}
		}
	}
	for m := range c.q {
		inflight = inflight[:0]
		batch := 0 // frames encoded into the buffer, awaiting flush
		lost := 0  // frames that failed to encode
		err := enc.EncodeBuffered(&m.msg)
		if err != nil {
			lost = 1
		} else {
			batch++
			track(m)
		coalesce:
			for enc.Buffered() < defaultCoalesceBytes {
				select {
				case m2, ok := <-c.q:
					if !ok {
						break coalesce
					}
					if err = enc.EncodeBuffered(&m2.msg); err != nil {
						lost = 1
						break coalesce
					}
					batch++
					track(m2)
				default:
					break coalesce // queue idle: flush what we have
				}
			}
		}
		if err == nil {
			err = enc.Flush()
		}
		if err != nil {
			if st != nil {
				st.Dropped.Add(uint64(batch + lost))
			}
			e.dropConn(to, c)
			for range c.q { // drained: shutdown closed the queue
				if st != nil {
					st.Dropped.Inc()
				}
			}
			return
		}
		if st != nil {
			st.MsgsSent.Add(uint64(batch))
			if st.Spans != nil && len(inflight) > 0 {
				// Enqueue→flush residency of every traced frame in the
				// coalesced burst (socket flight time is not observable
				// from one side; the queue wait is the tunable part).
				now := e.net.rt.Now()
				for _, qm := range inflight {
					ctx := qm.msg.Payload.(tracing.Traced).TraceCtx()
					st.Spans.Record(tracing.Span{
						Trace:  ctx.TraceID,
						ID:     tracing.NewSpanID(ctx.TraceID, "xport", string(e.id), qm.at),
						Parent: ctx.Span,
						Name:   "xport",
						Node:   string(e.id),
						Detail: string(qm.msg.To),
						Start:  qm.at,
						Dur:    now - qm.at,
					})
				}
			}
		}
	}
	_ = enc.Flush() // clean shutdown: best-effort final flush
}

// ID implements Endpoint.
func (e *TCPEndpoint) ID() wire.NodeID { return e.id }

// Addr returns the actual listening address.
func (e *TCPEndpoint) Addr() string { return e.ln.Addr().String() }

// Send implements Endpoint: best-effort and non-blocking. The message is
// handed to the connection's writer goroutine; if that queue is full or
// the connection is gone, the message is dropped and counted. Messages to
// nodes that are neither registered nor connected yet are buffered briefly
// (see pending).
func (e *TCPEndpoint) Send(to wire.NodeID, payload any) {
	st := e.net.stats.Load()
	qm := queuedMsg{msg: wire.Message{From: e.id, To: to, Payload: payload}}
	if st != nil && st.Spans != nil {
		qm.at = e.net.rt.Now()
	}
	conn, err := e.connTo(to)
	if err != nil {
		const maxPending = 128
		buffered := false
		e.mu.Lock()
		if !e.closed && len(e.pending[to]) < maxPending {
			e.pending[to] = append(e.pending[to], qm)
			buffered = true
		}
		e.mu.Unlock()
		if !buffered && st != nil {
			st.Dropped.Inc()
		}
		return
	}
	if !conn.enqueue(qm) && st != nil {
		st.Dropped.Inc()
	}
}

// Recv implements Endpoint.
func (e *TCPEndpoint) Recv() (wire.Message, bool) {
	return e.inbox.Get()
}

// Serve implements Endpoint: each connection's reader calls h itself. The
// inbox is drained into h first, so no reader overtakes a queued message.
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
	e.net.rt.Go("tcp-read/"+string(e.id), func() { e.readLoop(raw) })
	return c, nil
}

func (e *TCPEndpoint) dropConn(to wire.NodeID, c *tcpConn) {
	e.mu.Lock()
	if e.conns[to] == c {
		delete(e.conns, to)
	}
	e.mu.Unlock()
	c.shutdown()
	if st := e.net.stats.Load(); st != nil {
		st.ConnDrops.Inc()
	}
}

func (e *TCPEndpoint) acceptLoop() {
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		wrapped := e.net.wrapConn(conn)
		e.net.rt.Go("tcp-read/"+string(e.id), func() { e.readLoop(wrapped) })
	}
}

func (e *TCPEndpoint) readLoop(conn net.Conn) {
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
			if err != io.EOF {
				_ = conn.Close()
			}
			e.mu.Lock()
			delete(e.reading, conn)
			e.mu.Unlock()
			return
		}
		if st != nil {
			st.MsgsRecv.Inc()
		}
		if !learned && m.From != "" {
			// Remember the sender's connection so replies can travel back
			// over it — this is how replicas answer clients that have no
			// entry in the static address registry — and flush anything
			// buffered for that sender through the normal send queue, so
			// flushed messages get the same stats accounting as Send.
			learned = true
			e.mu.Lock()
			target, exists := e.conns[m.From]
			if !exists && !e.closed {
				target = e.newConn(m.From, conn)
				e.conns[m.From] = target
			}
			flush := e.pending[m.From]
			delete(e.pending, m.From)
			e.mu.Unlock()
			for i := range flush {
				if target == nil || !target.enqueue(flush[i]) {
					if st != nil {
						st.Dropped.Inc()
					}
				}
			}
		}
		e.serveMu.Lock()
		e.handler(m)
		e.serveMu.Unlock()
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
