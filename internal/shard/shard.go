// Package shard partitions a replicated object's key space across many
// independent replica groups — the scale-out axis of the middleware. One
// replicated object = one group = one total order is the hard ceiling on
// aggregate throughput no matter how fast the single pipeline gets;
// following Parallel Deferred Update Replication (see PAPERS.md), the
// object space is split into S shards, each a full replica group with its
// own sequencer, ordered log, scheduler and checkpoints, and clients route
// each invocation to its home group by key class.
//
// Routing is a consistent-hash ring with virtual nodes, derived from a
// Table that is fixed when the object is created. A *shard directory*
// group serves the table's encoding like any replicated object's reply,
// and clients bootstrap their routers from it; a replica that receives a
// request for a key it does not own answers with a deterministic redirect,
// which the client reports as an error.
//
// Cross-shard invocations take a first-cut blocking two-group ordered
// path: the request is ordered in the routed key's home group, and the
// handler reaches the other shards through nested invocations routed by
// the same table (Invocation.InvokeShard), so the merge point — the nested
// reply's position in the originating order — is identical on every
// replica.
//
// This package holds the pure routing machinery (table and ring); the
// replica/client integration lives in internal/replica and
// internal/client, the public API in replobj.go.
package shard

import (
	"errors"
	"fmt"
	"strconv"

	"github.com/replobj/replobj/internal/wire"
)

// DefaultVNodes is the default number of virtual nodes each shard places
// on the ring. More virtual nodes smooth the key distribution and shrink
// the per-shard load variance; 64 keeps rebalance deltas near the
// theoretical 1/(S+1) bound without bloating ring construction.
const DefaultVNodes = 64

// GroupName returns the group id of the i-th shard of an object.
func GroupName(object string, i int) wire.GroupID {
	return wire.GroupID(object + "@" + strconv.Itoa(i))
}

// DirGroup returns the group id of an object's shard directory.
func DirGroup(object string) wire.GroupID {
	return wire.GroupID(object + ".dir")
}

// Table is the routing table of one sharded object: the shard groups in
// rank order plus the virtual-node count of the ring derived from it.
// Tables are immutable values, fixed when the object is created.
type Table struct {
	// Object is the sharded object's base name.
	Object string
	// Shards lists the shard group ids in rank order.
	Shards []wire.GroupID
	// VNodes is the virtual-node count per shard on the ring.
	VNodes int
}

// NewTable builds the table of an object with n shards. vnodes <= 0
// selects DefaultVNodes.
func NewTable(object string, n, vnodes int) Table {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	t := Table{Object: object, VNodes: vnodes}
	for i := 0; i < n; i++ {
		t.Shards = append(t.Shards, GroupName(object, i))
	}
	return t
}

// Bounds on a table's ring: NewRing allocates one point per shard per
// virtual node, so a table decoded from a reply must not ask for more.
const (
	maxVNodes     = 1 << 10
	maxRingPoints = 1 << 20
)

// Validate checks structural invariants.
func (t Table) Validate() error {
	if t.Object == "" {
		return errors.New("shard: table without object name")
	}
	if len(t.Shards) == 0 {
		return errors.New("shard: table without shards")
	}
	if t.VNodes <= 0 || t.VNodes > maxVNodes || len(t.Shards)*t.VNodes > maxRingPoints {
		return fmt.Errorf("shard: %d virtual nodes on %d shards out of bounds", t.VNodes, len(t.Shards))
	}
	seen := make(map[wire.GroupID]bool, len(t.Shards))
	for _, g := range t.Shards {
		if g == "" || seen[g] {
			return fmt.Errorf("shard: duplicate or empty shard group %q", g)
		}
		seen[g] = true
	}
	return nil
}

// Encode serializes the table into the canonical binary form that rides
// directory replies, in the wire codec's primitives: uvarint vnodes, object,
// uvarint shard count, shards — all strings length-prefixed.
func (t Table) Encode() []byte {
	return wire.Append(make([]byte, 0, 16+len(t.Object)+16*len(t.Shards)), func(b *wire.Buffer) {
		b.Uvarint(uint64(t.VNodes))
		b.String(t.Object)
		b.Uvarint(uint64(len(t.Shards)))
		for _, g := range t.Shards {
			b.String(string(g))
		}
	})
}

// DecodeTable parses an encoded table and validates it. It refuses
// non-minimal varints and trailing bytes: what decodes re-encodes alike.
func DecodeTable(data []byte) (t Table, err error) {
	err = wire.Decode(data, func(r *wire.Reader) {
		t.VNodes, t.Object = int(r.Uvarint()), r.String()
		t.Shards = wire.Elems(r, "shard", 1, func(r *wire.Reader) wire.GroupID { return wire.GroupID(r.String()) })
		r.Fail(t.Validate())
	})
	return t, err
}

// RedirectError formats the message of a wrong-shard reply for whoever
// reads it — the protocol goes by the reply's code, never by this text.
func RedirectError(key string, home wire.GroupID) string {
	return fmt.Sprintf("shard: wrong shard (key %q is homed on %s)", key, home)
}
