// Package transport moves wire.Messages between nodes.
//
// Two implementations mirror the two vtime runtimes:
//
//   - Inproc — an in-memory network with a configurable latency model,
//     drop rules and crash switches, used with the virtual-time kernel. It
//     stands in for the paper's 100 Mbit/s switched-Ethernet testbed: the
//     default one-way latency approximates a small CORBA message on that
//     LAN, and EXPERIMENTS.md compares curve shapes, not absolute values.
//
//   - TCP — a real network transport (gob-framed, length-prefixed) for
//     deployments on actual machines, normally combined with vtime.Real().
package transport

import (
	"github.com/replobj/replobj/internal/wire"
)

// Endpoint is one node's attachment to a network.
type Endpoint interface {
	// ID returns the node identifier this endpoint is bound to.
	ID() wire.NodeID

	// Send enqueues a message for asynchronous, best-effort delivery.
	// It never blocks on the destination.
	Send(to wire.NodeID, payload any)

	// Recv blocks until a message arrives; ok is false after Close.
	Recv() (wire.Message, bool)

	// Serve pushes instead: from the call on, every message goes to h, the
	// ones already queued for Recv first, one at a time, in arrival order
	// per sender. h runs on a goroutine of the transport and must not block
	// (it may Send). Serve is called at most once, without the runtime
	// lock; nothing reaches h after Close, which h must not call.
	Serve(h func(wire.Message))

	// Close detaches the endpoint; blocked Recvs return ok=false and
	// messages addressed here are dropped from then on.
	Close()
}

// Network creates endpoints.
type Network interface {
	// Endpoint binds id and returns its endpoint. Binding an id twice
	// replaces the previous binding on Inproc (the old endpoint keeps its
	// queued messages but receives no new ones) and fails on TCP.
	Endpoint(id wire.NodeID) Endpoint
}
