// Package wire defines the shared vocabulary of the middleware: node,
// group and invocation identifiers, the transport message envelope, and the
// framed codec used by the TCP transport — a hand-rolled binary fast path
// for the hot protocol payloads (see binary.go) with a gob fallback for
// everything else.
//
// It corresponds to the IIOP/GIOP layer of the paper's CORBA-based FTflex
// infrastructure: a small, stable set of types every other layer speaks.
package wire

import (
	"encoding/gob"
	"strconv"
)

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

// LogicalID identifies a logical thread of execution (paper Section 3.1,
// the SL and SA+L models). A chain of nested invocations — even one that
// calls back into the originating object — carries a single LogicalID, which
// is what lets a replica (a) detect callbacks and run them on an extra
// physical thread, and (b) grant reentrant locks owned by the same logical
// thread.
type LogicalID string

// InvocationID uniquely identifies one method invocation for at-most-once
// semantics: the logical thread plus a per-thread invocation counter.
// Retransmissions reuse the same InvocationID and are answered from the
// reply cache.
type InvocationID struct {
	Logical LogicalID
	Seq     uint64
}

func (id InvocationID) String() string {
	var buf [48]byte
	b := append(buf[:0], id.Logical...)
	b = append(b, '#')
	return string(strconv.AppendUint(b, id.Seq, 10))
}

// Message is the transport envelope. Payload is one of the protocol structs
// registered with the codec: over TCP it travels in the binary encoding
// registered for its type (Register), or as gob where there is none; the
// in-process transport passes the value through untouched.
type Message struct {
	From    NodeID
	To      NodeID
	Payload any
}

// RegisterPayload registers a payload type with the codec's gob fallback
// only. Every protocol message of this tree is registered with Register,
// which installs its binary encoding and calls this for the gob twin the
// codec tests compare that encoding against.
func RegisterPayload(v any) {
	gob.Register(v)
}
