package transport

import (
	"github.com/replobj/replobj/internal/wire"
)

// WrappedNetwork layers a send interceptor over an existing Network. It is
// the generic hook point for fault injection, traffic capture, or
// rate-limiting wrappers: endpoints bind through to the inner network, and
// every Send first passes the interceptor. A nil interceptor forwards
// everything. The faultnet package builds its deterministic chaos transport
// on this seam.
type WrappedNetwork struct {
	inner     Network
	intercept func(from, to wire.NodeID, payload any, forward func()) bool
}

var _ Network = (*WrappedNetwork)(nil)

// NewWrappedNetwork wraps inner. The interceptor receives each outbound
// message plus a forward closure that performs the real send; it returns
// true if it consumed the message (i.e. the wrapper must NOT forward it
// itself — the interceptor either dropped it or called forward, possibly
// several times or from a timer).
func NewWrappedNetwork(inner Network, intercept func(from, to wire.NodeID, payload any, forward func()) bool) *WrappedNetwork {
	return &WrappedNetwork{inner: inner, intercept: intercept}
}

// Endpoint implements Network.
func (w *WrappedNetwork) Endpoint(id wire.NodeID) Endpoint {
	return &wrappedEndpoint{Endpoint: w.inner.Endpoint(id), net: w}
}

// SetStats forwards the metric/span sink to the inner network when it
// supports one, so instrumentation sees the traffic that actually survives
// the interceptor (post-fault, for faultnet).
func (w *WrappedNetwork) SetStats(st *Stats) {
	if s, ok := w.inner.(interface{ SetStats(*Stats) }); ok {
		s.SetStats(st)
	}
}

// wrappedEndpoint intercepts Send; the rest is the inner endpoint's.
type wrappedEndpoint struct {
	Endpoint
	net *WrappedNetwork
}

func (e *wrappedEndpoint) Send(to wire.NodeID, payload any) {
	if e.net.intercept != nil {
		consumed := e.net.intercept(e.ID(), to, payload, func() {
			e.Endpoint.Send(to, payload)
		})
		if consumed {
			return
		}
	}
	e.Endpoint.Send(to, payload)
}
