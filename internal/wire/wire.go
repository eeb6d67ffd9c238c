// Package wire defines the shared vocabulary of the middleware: node,
// group and invocation identifiers, the transport message envelope, and the
// framed codec used by the TCP transport — one hand-rolled binary format,
// with a codec registered for every payload type (see binary.go).
//
// It corresponds to the IIOP/GIOP layer of the paper's CORBA-based FTflex
// infrastructure: a small, stable set of types every other layer speaks.
package wire

import "strconv"

// NodeID identifies a process endpoint: a replica ("groupA/0") or a client
// ("client/c1").
type NodeID string

// GroupID identifies a replicated object group.
type GroupID string

// ReplicaID builds the NodeID of the i-th replica of a group.
func ReplicaID(g GroupID, i int) NodeID {
	return NodeID(string(g) + "/" + strconv.Itoa(i))
}

// ClientID builds the NodeID of a client endpoint.
func ClientID(name string) NodeID {
	return NodeID("client/" + name)
}

// LogicalID is the text half of a logical thread's name (paper Section
// 3.1, the SL and SA+L models; see ThreadID). For the thread a client's call
// starts it is the client's node name, which frames carry as an interned
// identifier; an id with no call number (Call 0: hand-built ids, tests, a
// scheduler's own timeout requests) is named by this text alone. Pinned by
// benchmark/probes.go.
type LogicalID string

// ThreadID names a logical thread. A chain of nested invocations — even one
// that calls back into the originating object — carries a single ThreadID,
// which is what lets a replica (a) detect callbacks and run them on an extra
// physical thread, and (b) grant reentrant locks owned by the same logical
// thread. A client's call starts the thread (client node name, call number);
// equality is all the middleware asks of it, so no text is built for it on
// the request path.
type ThreadID struct {
	Logical LogicalID
	// Call is the number of the client call that started the thread; 0
	// names the thread by Logical alone.
	Call uint64
}

// String returns the thread's text: "<Logical>#<Call>", or Logical alone
// when Call is 0. It is built on every call.
func (t ThreadID) String() string {
	if t.Call == 0 {
		return string(t.Logical)
	}
	return string(t.AppendText(nil))
}

// AppendText appends the thread's text (see String) to b.
func (t ThreadID) AppendText(b []byte) []byte {
	b = append(b, t.Logical...)
	if t.Call == 0 {
		return b
	}
	return strconv.AppendUint(append(b, '#'), t.Call, 10)
}

// InvocationID uniquely identifies one method invocation for at-most-once
// semantics: the logical thread (Logical, Call) plus a per-thread invocation
// counter, Seq — 0 for the client's call itself, derived from the caller's
// for a nested one. For a client's call, Call is also the number
// at-most-once compares. Retransmissions reuse the same InvocationID and are
// answered from the reply cache. Pinned by benchmark/probes.go, which sets
// Logical.
type InvocationID struct {
	Logical LogicalID
	Call    uint64
	Seq     uint64
}

// Thread returns the logical thread the invocation belongs to.
func (id InvocationID) Thread() ThreadID { return ThreadID{Logical: id.Logical, Call: id.Call} }

// String returns the invocation's text, "<thread>#<Seq>" (see
// ThreadID.String). It is built on every call.
func (id InvocationID) String() string {
	var buf [64]byte
	b := id.Thread().AppendText(buf[:0])
	return string(strconv.AppendUint(append(b, '#'), id.Seq, 10))
}

// Message is the transport envelope. Payload is one of the protocol structs
// registered with the codec: over TCP it travels in the binary encoding
// registered for its type (Register), and a payload of a type without one
// does not encode; the in-process transport passes it through untouched.
//
// A top-level payload is a pointer, *T, lent at both ends. A sender lends
// it to Send until Send returns — the TCP transport encodes the frame there,
// a transport that delivers later keeps an Own copy — and may then write the
// cell again. A receiver borrows it too: a TCP reader decodes into a *T it
// owns and lends it to the handler until the handler returns, so a handler
// never writes through it and copies out (dereferences) whatever it keeps;
// Own makes a copy to keep whole. A nested payload — the Payload of a gcs
// Submit or Ordered — is a *T too, owned by whoever holds it and written
// by nobody: a stream Decoder carves it from a slab (see Decoder.Decode).
//
// Pinned by benchmark/probes.go, which encodes T values (Register) and
// echoes what Recv returned.
type Message struct {
	From    NodeID
	To      NodeID
	Payload any
}
