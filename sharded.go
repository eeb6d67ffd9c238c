package replobj

import (
	"fmt"
	"slices"
	"strings"

	"github.com/replobj/replobj/internal/client"
	"github.com/replobj/replobj/internal/shard"
)

// Shard-aware vocabulary re-exported so applications need only this
// package.
type (
	// ShardTable is the routing table of a sharded object, fixed when the
	// object is created: the shard group list plus the virtual-node
	// weighting of the consistent-hash ring. Key→shard assignment is a pure
	// function of the table, so every router and replica derives identical
	// homes.
	ShardTable = shard.Table
	// ShardRouter is the shard-aware client stub: it routes each invocation
	// to its key's home shard group. Obtain one with Client.Router(object).
	ShardRouter = client.Router
	// ShardInvokeOption parameterizes one routed invocation (see
	// WithShardKey).
	ShardInvokeOption = client.InvokeOption
)

// WithShardKey declares the key class a routed invocation is hashed by;
// required on every ShardRouter.Invoke.
func WithShardKey(key string) ShardInvokeOption { return client.WithShardKey(key) }

// Sharded is a sharded replicated object: the object space is partitioned
// across S independent replica groups — each with its own sequencer,
// totally ordered log, checkpoints and deterministic scheduler — by a
// consistent-hash ring over key classes. The shard count and the routing
// table are fixed at creation. A shard directory, itself a replicated
// object (group "<object>.dir"), serves the table, so routers bootstrap
// through the same invocation path as any other object.
type Sharded struct {
	object string
	table  ShardTable
	dir    *Group
	shards []*Group
}

// NewSharded creates a sharded object with n replicas per shard group.
// The shard count comes from WithShards (default 1); all other group
// options apply to every shard group. The directory group is created
// alongside with the same replica count, the shard groups' failure
// detection and quorum, and ADETS-SAT. A refused call creates nothing.
func (c *Cluster) NewSharded(object string, n int, opts ...GroupOption) (*Sharded, error) {
	if strings.ContainsAny(object, "@") {
		return nil, fmt.Errorf("replobj: sharded object name %q must not contain '@'", object)
	}
	cfg, err := parseGroupOptions(opts, true)
	if err != nil {
		return nil, err
	}
	table := shard.NewTable(object, max(cfg.shards, 1), 0)
	dirID := shard.DirGroup(object)
	for _, gid := range append([]GroupID{dirID}, table.Shards...) {
		if err := c.checkNewGroup(gid, n); err != nil {
			return nil, err
		}
	}

	// The directory group: a small stateless replicated object whose "get"
	// answers a copy of the table's encoding, captured once. It inherits the failure
	// detection and quorum of the data groups (a crashed directory
	// sequencer must fail over like any other) but keeps the default
	// scheduler — its workload is tiny.
	dir := c.newGroup(dirID, n, groupConfig{
		kind:             ADSAT,
		failureDetection: cfg.failureDetection,
		quorum:           cfg.quorum,
	})
	enc := table.Encode()
	dir.Register("get", func(*Invocation) ([]byte, error) { return slices.Clone(enc), nil })

	s := &Sharded{object: object, table: table, dir: dir}
	cfg.shard = shard.NewRing(table)
	for _, gid := range table.Shards {
		s.shards = append(s.shards, c.newGroup(gid, n, cfg))
	}
	return s, nil
}

// Object returns the sharded object's name.
func (s *Sharded) Object() string { return s.object }

// NumShards returns the shard-group count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Shard returns the i-th shard group (nil out of range).
func (s *Sharded) Shard(i int) *Group {
	if i < 0 || i >= len(s.shards) {
		return nil
	}
	return s.shards[i]
}

// Groups returns the shard group ids in rank order.
func (s *Sharded) Groups() []GroupID {
	return append([]GroupID(nil), s.table.Shards...)
}

// Dir returns the shard-directory group.
func (s *Sharded) Dir() *Group { return s.dir }

// Table returns the table the shard groups were created with.
func (s *Sharded) Table() ShardTable { return s.table }

// Register binds a method handler on every shard group. Must precede
// Start/StartRank.
func (s *Sharded) Register(method string, h Handler) {
	for _, g := range s.shards {
		g.Register(method, h)
	}
}

// EachShard calls fn for every shard group in rank order.
func (s *Sharded) EachShard(fn func(i int, g *Group)) {
	for i, g := range s.shards {
		fn(i, g)
	}
}

// Start launches every replica of the directory and all shard groups in
// this process.
func (s *Sharded) Start() {
	s.dir.Start()
	for _, g := range s.shards {
		g.Start()
	}
}

// Stop shuts all locally running replicas of the object down.
func (s *Sharded) Stop() {
	for _, g := range s.shards {
		g.Stop()
	}
	s.dir.Stop()
}

// ShardGroupName returns the group id of shard i of a sharded object —
// useful when addressing shard groups directly (tooling, experiments).
func ShardGroupName(object string, i int) GroupID { return shard.GroupName(object, i) }

// ShardDirGroup returns the group id of the object's shard directory.
func ShardDirGroup(object string) GroupID { return shard.DirGroup(object) }
