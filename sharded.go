package replobj

import (
	"fmt"
	"strings"
	"time"

	"github.com/replobj/replobj/internal/client"
	"github.com/replobj/replobj/internal/shard"
)

// Shard-aware vocabulary re-exported so applications need only this
// package.
type (
	// ShardTable is the epoch-numbered routing table of a sharded object:
	// the shard group list plus the virtual-node weighting of the
	// consistent-hash ring. Key→shard assignment is a pure function of the
	// table, so every router and replica derives identical homes.
	ShardTable = shard.Table
	// ShardRouter is the shard-aware client stub: it routes each invocation
	// to its key's home shard group and follows wrong-shard redirects under
	// bounded backoff. Obtain one with Client.Router(object).
	ShardRouter = client.Router
	// ShardInvokeOption parameterizes one routed invocation (see
	// WithShardKey, WithCrossKey).
	ShardInvokeOption = client.InvokeOption
)

// WithShardKey declares the key class a routed invocation is hashed by;
// required on every ShardRouter.Invoke.
func WithShardKey(key string) ShardInvokeOption { return client.WithShardKey(key) }

// WithCrossKey declares an additional key class the invocation touches.
// The request executes on the primary key's home shard; the handler
// reaches keys homed elsewhere through Invocation.InvokeShard. May be
// repeated.
func WithCrossKey(key string) ShardInvokeOption { return client.WithCrossKey(key) }

// Sharded is a sharded replicated object: the object space is partitioned
// across S independent replica groups — each with its own sequencer,
// totally ordered log, checkpoints and deterministic scheduler — by a
// consistent-hash ring over key classes. The routing table lives in an
// epoch-numbered shard directory that is itself a replicated object
// (group "<object>.dir"), so routers bootstrap and refresh through the
// same invocation path as any other object.
type Sharded struct {
	object  string
	table   ShardTable
	cluster *Cluster
	dir     *Group
	shards  []*Group
	// Creation parameters retained so Reshard can stamp out additional
	// shard groups configured exactly like the originals.
	replicasPer int
	groupCfg    groupConfig
	handlers    map[string]Handler
	// retired holds groups a shrinking Reshard removed from the shard set.
	// They keep running as redirect tombstones (see Reshard step 5) until
	// Stop, and a later grow that reuses their id revives them.
	retired map[GroupID]*Group
}

// NewSharded creates a sharded object with n replicas per shard group.
// The shard count comes from WithShards (default 1); all other group
// options apply to every shard group. WithSpeculation is refused. The
// directory group is created alongside with the same replica count, the
// shard groups' failure detection and quorum, and a lean serial scheduler.
// A refused call creates nothing.
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

	// The directory group: a small replicated object holding the routing
	// table. It inherits the failure detection and quorum of the data
	// groups (a crashed directory sequencer must fail over like any other)
	// but keeps the default serial scheduler — its workload is tiny.
	dir := c.newGroup(dirID, n, groupConfig{
		kind:             ADSAT,
		state:            shard.StateFactory(table),
		failureDetection: cfg.failureDetection,
		quorum:           cfg.quorum,
		logRetain:        cfg.logRetain,
	})
	dir.Register("get", func(inv *Invocation) ([]byte, error) {
		if err := inv.Lock("table"); err != nil {
			return nil, err
		}
		defer inv.Unlock("table")
		return inv.State().(*shard.DirectoryState).Get().Encode(), nil
	})
	dir.Register("set", func(inv *Invocation) ([]byte, error) {
		if err := inv.Lock("table"); err != nil {
			return nil, err
		}
		defer inv.Unlock("table")
		next, err := shard.DecodeTable(inv.Args())
		if err != nil {
			return nil, err
		}
		if err := inv.State().(*shard.DirectoryState).Apply(next); err != nil {
			return nil, err
		}
		return next.Encode(), nil
	})

	s := &Sharded{
		object:      object,
		table:       table,
		cluster:     c,
		dir:         dir,
		replicasPer: n,
		groupCfg:    cfg,
		handlers:    make(map[string]Handler),
	}
	for _, gid := range table.Shards {
		s.shards = append(s.shards, c.newGroup(gid, n, cfg.forShard(table)))
	}
	return s, nil
}

// forShard returns the options of one shard group of a sharded object
// whose replicas boot under table.
func (cfg *groupConfig) forShard(table ShardTable) groupConfig {
	sub := *cfg
	sub.shardTable = &table
	return sub
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

// Table returns the table the shard groups were created with (epoch 1
// unless updated through UpdateTable).
func (s *Sharded) Table() ShardTable { return s.table }

// Register binds a method handler on every shard group. Must precede
// Start/StartRank; Reshard re-binds the same handlers on groups it adds.
func (s *Sharded) Register(method string, h Handler) {
	s.handlers[method] = h
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

// Stop shuts all locally running replicas of the object down, including
// any retired tombstone groups left by shrinking reshards.
func (s *Sharded) Stop() {
	for _, g := range s.shards {
		g.Stop()
	}
	for _, g := range s.retired {
		g.Stop()
	}
	s.dir.Stop()
}

// UpdateTable installs the next-epoch routing table: first in the
// directory (so new routers bootstrap the new epoch), then in every shard
// group through the reserved epoch-install method, applied at a totally
// ordered position of each group's stream. In-flight requests stamped
// with the old epoch are answered with deterministic wrong-shard
// redirects during the handover; routers absorb them with bounded
// backoff. next must follow the current table (epoch + 1, same shard
// set — this first cut rebalances vnode weighting only, no state
// migration).
func (s *Sharded) UpdateTable(cl *Client, next ShardTable) error {
	if err := next.Validate(); err != nil {
		return fmt.Errorf("replobj: shard table update: %w", err)
	}
	enc := next.Encode()
	if _, err := cl.Invoke(s.dir.id, "set", enc); err != nil {
		return fmt.Errorf("replobj: shard directory update: %w", err)
	}
	for _, g := range s.shards {
		if _, err := cl.Invoke(g.id, shard.EpochMethod, enc); err != nil {
			return fmt.Errorf("replobj: shard %s epoch install: %w", g.id, err)
		}
	}
	s.table = next
	return nil
}

// reshardPollLimit bounds the handoff-drain polling loop of Reshard; with
// ordered status probes every few milliseconds this is minutes of virtual
// time — far beyond any healthy migration.
const reshardPollLimit = 4096

// Reshard live-migrates the object to a different shard-group count while
// requests keep flowing — the elastic scale-out/scale-in path. The object
// state must implement KeyedSnapshotter (per-key export/install/drop);
// otherwise every group rejects the prepare deterministically and Reshard
// reports it.
//
// The protocol, every step an ordered event of some group's stream:
//
//  1. New shard groups (growing) are created with this object's original
//     options and handlers and started under the CURRENT table.
//  2. A prepare carrying the next-epoch table is ordered into every
//     participating group — targets first, so handoff chunks are expected
//     wherever they can arrive. Each group plans the same migration from
//     the two tables, freezes checkpoints and pins log truncation.
//  3. Source groups cut at their next quiesced position: moved keys (and
//     their reply-cache entries) leave the state and travel as ordered
//     chunks into the target groups, which install them in order. Old-home
//     arrivals for moved keys forward along the ordered cross-shard path
//     (the dual-home window); new-home arrivals for keys still in flight
//     park until their chunk lands. Reshard polls ordered status probes
//     until every group reports its handoff drained.
//  4. The directory flips to the next epoch — new router refreshes now
//     route under the new table — and then a fence is ordered into every
//     group, installing the next epoch as its current. The fence fails
//     deterministically if the handoff regressed (e.g. a rejoiner still
//     draining); Reshard retries until it lands everywhere.
//  5. Retired groups (shrinking) hold no keys after the cut but keep
//     running as redirect tombstones: requests from routers that have not
//     refreshed yet draw deterministic redirects (and retransmissions of
//     forwarded requests draw their cached replies) instead of timing out
//     against a vanished group. Stop shuts the tombstones down.
//
// Exactness across the cutover: a request stamped with epoch e executes at
// the old home (directly or via the dual-home forward) iff it is ordered
// before the old home's fence; ordered after, it is redirected and the
// router retries under the new table with a fresh invocation id. It can
// never do both, so at-most-once survives the move — re-tried invocations
// were never executed, and retransmitted ones hit the migrated reply cache.
//
// Like UpdateTable, Reshard must run on a tracked goroutine. On polling
// timeout the transition is left armed (requests keep flowing, checkpoints
// stay frozen) and the error says which group stalled.
func (s *Sharded) Reshard(cl *Client, shards int) error {
	next := s.table.Reshape(shards)
	plan, err := shard.PlanMigration(s.table, next)
	if err != nil {
		return fmt.Errorf("replobj: reshard: %w", err)
	}
	cur := s.table
	enc := next.Encode()

	// Create and start the added shard groups (growing). They boot under
	// the current table — the prepare arms the transition like everywhere
	// else — with the object's original options and handlers.
	groups := make(map[GroupID]*Group, len(s.shards))
	for _, g := range s.shards {
		groups[g.id] = g
	}
	for _, gid := range next.Shards {
		if _, ok := groups[gid]; ok {
			continue
		}
		// A previous shrink may have left this id as a running tombstone:
		// its fence installed what is now the current table and its moved
		// keys were dropped at the cut, so it is exactly a freshly booted
		// group under cur — revive it instead of creating a duplicate.
		if g, ok := s.retired[gid]; ok {
			delete(s.retired, gid)
			groups[gid] = g
			continue
		}
		if err := s.cluster.checkNewGroup(gid, s.replicasPer); err != nil {
			return fmt.Errorf("replobj: reshard: %w", err)
		}
		g := s.cluster.newGroup(gid, s.replicasPer, s.groupCfg.forShard(cur))
		for m, h := range s.handlers {
			g.Register(m, h)
		}
		g.Start()
		groups[gid] = g
	}

	// Participants, move-targets strictly first: a source group starts its
	// cut as soon as its own prepare is ordered, and from then on it may
	// forward dual-home traffic into any move target — so every target must
	// be armed (its prepare ordered, a majority acked) before any source's
	// prepare is even sent. Within a group, gcs total order then guarantees
	// each replica sees the prepare before any forwarded request or chunk.
	targets := make(map[GroupID]bool)
	for _, mv := range plan.Moves {
		targets[mv.Target] = true
	}
	var participants []GroupID
	inNext := make(map[GroupID]bool, len(next.Shards))
	for _, gid := range next.Shards {
		inNext[gid] = true
	}
	queued := make(map[GroupID]bool)
	add := func(gid GroupID, wantTarget bool) {
		if queued[gid] || targets[gid] != wantTarget {
			return
		}
		participants = append(participants, gid)
		queued[gid] = true
	}
	for _, gid := range next.Shards {
		add(gid, true)
	}
	for _, gid := range next.Shards {
		add(gid, false)
	}
	for _, gid := range cur.Shards {
		add(gid, false)
	}

	for _, gid := range participants {
		if _, err := cl.Invoke(gid, shard.PrepareMethod, enc); err != nil {
			return fmt.Errorf("replobj: reshard prepare %s: %w", gid, err)
		}
	}

	// Drive and observe the handoff: each status probe is an ordered
	// delivery, so polling also gives every group fresh quiesce attempts
	// for its pending cut/install work.
	for poll := 0; ; poll++ {
		allDone := true
		var waitingOn GroupID
		for _, gid := range participants {
			out, err := cl.Invoke(gid, shard.StatusMethod, nil)
			if err != nil {
				return fmt.Errorf("replobj: reshard status %s: %w", gid, err)
			}
			st, err := shard.DecodeStatus(out)
			if err != nil {
				return fmt.Errorf("replobj: reshard status %s: %w", gid, err)
			}
			if !st.Done() {
				allDone = false
				waitingOn = gid
			}
		}
		if allDone {
			break
		}
		if poll >= reshardPollLimit {
			return fmt.Errorf("replobj: reshard: handoff to epoch %d did not drain (waiting on %s)", next.Epoch, waitingOn)
		}
		s.cluster.rt.Sleep(2 * time.Millisecond)
	}

	// Directory first: from here on, refreshing routers adopt the new
	// table; the groups still answer old-epoch traffic (forwarding moved
	// keys) until their fence lands.
	if _, err := cl.Invoke(s.dir.id, "set", enc); err != nil {
		return fmt.Errorf("replobj: reshard directory flip: %w", err)
	}
	for _, gid := range participants {
		var lastErr error
		for attempt := 0; attempt < 64; attempt++ {
			if _, lastErr = cl.Invoke(gid, shard.FenceMethod, enc); lastErr == nil {
				break
			}
			// A rejoiner replaying the handoff can refuse transiently.
			s.cluster.rt.Sleep(2 * time.Millisecond)
		}
		if lastErr != nil {
			return fmt.Errorf("replobj: reshard fence %s: %w", gid, lastErr)
		}
	}

	// Retire groups that left the shard set; their keys moved with the
	// cut. They are NOT stopped: a stale router can still have old-epoch
	// requests in flight — or submit more before its next refresh — and
	// those must keep drawing deterministic redirect replies (and, for
	// dual-home forwards whose reply was lost, the cached reply on
	// retransmit) rather than timing out against a vanished group. The
	// tombstones hold no keys after the cut; Stop shuts them down.
	var kept []*Group
	for _, gid := range next.Shards {
		kept = append(kept, groups[gid])
	}
	if s.retired == nil {
		s.retired = make(map[GroupID]*Group)
	}
	for _, g := range s.shards {
		if !inNext[g.id] {
			s.retired[g.id] = g
		}
	}
	s.table = next
	s.shards = kept
	return nil
}

// ShardGroupName returns the group id of shard i of a sharded object —
// useful when addressing shard groups directly (tooling, experiments).
func ShardGroupName(object string, i int) GroupID { return shard.GroupName(object, i) }

// ShardDirGroup returns the group id of the object's shard directory.
func ShardDirGroup(object string) GroupID { return shard.DirGroup(object) }
