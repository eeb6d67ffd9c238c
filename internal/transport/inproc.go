package transport

import (
	"math/rand"
	"sync"
	"time"

	"github.com/replobj/replobj/internal/obs/tracing"
	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

// LatencyFunc returns the one-way delivery latency for a message.
type LatencyFunc func(from, to wire.NodeID) time.Duration

// DropFunc reports whether a message should be silently dropped.
type DropFunc func(from, to wire.NodeID) bool

// InprocOption configures an in-process network.
type InprocOption func(*Inproc)

// WithLatency sets a constant one-way latency (default 600 µs, a small
// message on the paper's 100 Mbit/s switched LAN).
func WithLatency(d time.Duration) InprocOption {
	return func(n *Inproc) {
		n.latency = func(_, _ wire.NodeID) time.Duration { return d }
	}
}

// WithLatencyFunc sets a per-edge latency model.
func WithLatencyFunc(f LatencyFunc) InprocOption {
	return func(n *Inproc) { n.latency = f }
}

// WithJitter adds uniform random jitter in [0, j) to every delivery, drawn
// from a deterministic seeded source.
func WithJitter(j time.Duration, seed int64) InprocOption {
	return func(n *Inproc) {
		n.jitter = j
		n.rng = rand.New(rand.NewSource(seed))
	}
}

// DefaultLatency is the default one-way message latency of the simulated
// LAN.
const DefaultLatency = 600 * time.Microsecond

// Inproc is an in-memory Network with simulated latency. Delivery order
// between a pair of nodes is FIFO per sender when latency is constant
// (messages scheduled earlier fire earlier; the virtual kernel breaks
// deadline ties by creation order).
type Inproc struct {
	rt      vtime.Runtime
	latency LatencyFunc
	jitter  time.Duration
	rng     *rand.Rand

	mu      sync.Mutex
	nodes   map[wire.NodeID]*inprocEndpoint
	drop    DropFunc
	crashed map[wire.NodeID]bool
	stats   *Stats
}

var _ Network = (*Inproc)(nil)

// NewInproc returns an in-memory network on rt.
func NewInproc(rt vtime.Runtime, opts ...InprocOption) *Inproc {
	n := &Inproc{
		rt:      rt,
		latency: func(_, _ wire.NodeID) time.Duration { return DefaultLatency },
		nodes:   make(map[wire.NodeID]*inprocEndpoint),
		crashed: make(map[wire.NodeID]bool),
	}
	for _, o := range opts {
		o(n)
	}
	return n
}

// Endpoint implements Network.
func (n *Inproc) Endpoint(id wire.NodeID) Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	ep := &inprocEndpoint{
		net:   n,
		id:    id,
		inbox: vtime.NewMailbox[wire.Message](n.rt, "inproc/"+string(id)),
	}
	n.nodes[id] = ep
	delete(n.crashed, id)
	return ep
}

// SetStats installs st as the network's metric sink (nil disables). Shared
// by all endpoints of this network.
func (n *Inproc) SetStats(st *Stats) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats = st
}

// SetDropRule installs f as the message-drop predicate (nil clears it).
// Used by failure-injection tests to create partitions and lossy links.
func (n *Inproc) SetDropRule(f DropFunc) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.drop = f
}

// Crash makes id unreachable: all future messages to or from it are
// dropped. It models a process crash as seen by the network; the node's
// goroutines are not forcibly stopped (they starve, as a real crashed
// process's peers would observe).
func (n *Inproc) Crash(id wire.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.crashed[id] = true
}

// Restore undoes Crash for id.
func (n *Inproc) Restore(id wire.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.crashed, id)
}

func (n *Inproc) send(from, to wire.NodeID, payload any) {
	n.mu.Lock()
	st := n.stats
	if n.crashed[from] || n.crashed[to] || (n.drop != nil && n.drop(from, to)) {
		n.mu.Unlock()
		if st != nil {
			st.Dropped.Inc()
		}
		return
	}
	d := n.latency(from, to)
	if n.jitter > 0 {
		d += time.Duration(n.rng.Int63n(int64(n.jitter)))
	}
	n.mu.Unlock()
	if st != nil {
		st.MsgsSent.Inc()
		if st.Spans != nil {
			if t, ok := payload.(tracing.Traced); ok {
				if ctx := t.TraceCtx(); ctx.Valid() {
					// One-way flight time: latency is known up front here,
					// so the span covers [now, now+d).
					start := n.rt.Now()
					st.Spans.Record(tracing.Span{
						Trace:  ctx.TraceID,
						ID:     tracing.NewSpanID(ctx.TraceID, "xport", string(from), start),
						Parent: ctx.Span,
						Name:   "xport",
						Node:   string(from),
						Detail: string(to),
						Start:  start,
						Dur:    d,
					})
				}
			}
		}
	}

	// Delivered later: the payload is only lent for the call, so keep a copy.
	msg := wire.Message{From: from, To: to, Payload: wire.Own(payload)}
	n.rt.After(d, "deliver/"+string(to), func() {
		n.mu.Lock()
		dst, ok := n.nodes[to]
		dead := n.crashed[to]
		n.mu.Unlock()
		if ok && !dead {
			if st != nil {
				st.MsgsRecv.Inc()
			}
			dst.inbox.Put(msg)
		} else if st != nil {
			st.Dropped.Inc()
		}
	})
}

type inprocEndpoint struct {
	net     *Inproc
	id      wire.NodeID
	inbox   *vtime.Mailbox[wire.Message]
	serveMu sync.Mutex // held around each handler call and by Close
	closed  bool
}

var _ Endpoint = (*inprocEndpoint)(nil)

func (e *inprocEndpoint) ID() wire.NodeID { return e.id }

func (e *inprocEndpoint) Send(to wire.NodeID, payload any) {
	e.net.send(e.id, to, payload)
}

func (e *inprocEndpoint) Recv() (wire.Message, bool) {
	return e.inbox.Get()
}

// Serve implements Endpoint with one tracked goroutine that takes the inbox
// to h, so virtual time parks and wakes where the caller's own loop would.
func (e *inprocEndpoint) Serve(h func(wire.Message)) {
	e.net.rt.Go("inproc-serve/"+string(e.id), func() {
		for m, ok := e.inbox.Get(); ok; m, ok = e.inbox.Get() {
			e.serveMu.Lock()
			if !e.closed {
				h(m)
			}
			e.serveMu.Unlock()
		}
	})
}

func (e *inprocEndpoint) Close() {
	e.net.mu.Lock()
	if e.net.nodes[e.id] == e {
		delete(e.net.nodes, e.id)
	}
	e.net.mu.Unlock()
	e.serveMu.Lock()
	e.closed = true
	e.serveMu.Unlock()
	e.inbox.Close()
}
