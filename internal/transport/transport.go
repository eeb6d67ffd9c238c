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
//   - TCP — a real network transport (length-prefixed frames in the binary
//     encoding of internal/wire) for deployments on actual machines,
//     normally combined with vtime.Real().
//
// A payload is a pointer to one of the protocol structs (wire.Message), lent
// on both sides. Send borrows the sender's until it returns: TCP encodes it
// there, and Inproc and WrappedNetwork, which deliver or forward later, keep
// a wire.Own copy, whose nested payloads are copies too. A TCP reader decodes
// into a payload it owns and lends it to the handler, which borrows it
// until it returns and copies out what it keeps: a Reply's Result is a
// window into the frame the reader read (see wire.Decoder.Decode).
package transport

import (
	"github.com/replobj/replobj/internal/wire"
)

// Endpoint is one node's attachment to a network.
type Endpoint interface {
	// ID returns the node identifier this endpoint is bound to.
	ID() wire.NodeID

	// Send enqueues a message for asynchronous, best-effort delivery.
	// It never blocks on the destination. payload is a *T of a registered
	// T (a T is encoded alike), borrowed until Send returns.
	Send(to wire.NodeID, payload any)

	// Recv blocks until a message arrives; ok is false after Close. The
	// payload is the caller's to keep. Pinned by benchmark/probes.go.
	Recv() (wire.Message, bool)

	// Serve pushes instead: from the call on, every message goes to h, the
	// ones already queued for Recv first, one at a time, in arrival order
	// per sender. h runs on a goroutine of the transport and must not block
	// (it may Send). It borrows the payload until it returns: it never
	// writes through it, and copies out (by dereferencing it, and copying
	// a Reply's Result, which TCP lends from the frame) whatever it keeps —
	// over TCP the reader zeroes the payload, lets the frame go and decodes
	// the next one into it. Serve is called at most once, without the runtime
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
