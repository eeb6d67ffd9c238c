package client

import (
	"errors"
	"fmt"

	"github.com/replobj/replobj/internal/obs"
	"github.com/replobj/replobj/internal/replica"
	"github.com/replobj/replobj/internal/shard"
	"github.com/replobj/replobj/internal/wire"
)

// Router is the shard-aware invocation stub of one sharded object: it
// fetches the routing table from the object's replicated shard directory,
// derives the consistent-hash ring locally (assignment is a pure function
// of the table, so every router and replica computes the same homes), and
// sends each invocation to its key's home shard group.
//
// Tables are fixed when the object is created, so a router never holds a
// stale one. A shard replica that is not a request's home answers with a
// deterministic CodeRedirect reply, which Invoke returns as an error at
// once. Like Client, a Router is meant for one goroutine at a time.
type Router struct {
	c      *Client
	object string
	dir    wire.GroupID

	table shard.Table
	ring  *shard.Ring

	routed    *obs.Counter
	redirects *obs.Counter
}

// Router returns a routing stub for a sharded object. The first Invoke
// (or an explicit Refresh) fetches the routing table from the object's
// shard directory group.
func (c *Client) Router(object string) *Router {
	r := &Router{c: c, object: object, dir: shard.DirGroup(object)}
	if c.metrics != nil {
		label := `{client="` + string(c.self) + `",object="` + object + `"}`
		r.routed = c.metrics.Counter("replobj_shard_client_routed_total" + label)
		r.redirects = c.metrics.Counter("replobj_shard_client_redirects_total" + label)
	}
	return r
}

// Table returns the cached routing table.
func (r *Router) Table() shard.Table { return r.table }

// Home returns the shard group the router would currently send a key to,
// refreshing the table first if none is cached yet.
func (r *Router) Home(key string) (wire.GroupID, error) {
	if r.ring == nil {
		if err := r.Refresh(); err != nil {
			return "", err
		}
	}
	return r.ring.HomeGroup(key), nil
}

// Refresh fetches the routing table from the shard directory and builds
// the ring. Must run on a tracked goroutine (it invokes the directory
// group like any replicated object).
func (r *Router) Refresh() error {
	rep, err := r.c.invokeReply(r.dir, "get", nil, "")
	if err != nil {
		return fmt.Errorf("client: shard directory %s: %w", r.dir, err)
	}
	if rep.Err != "" {
		return fmt.Errorf("client: shard directory %s: %s", r.dir, rep.Err)
	}
	t, err := shard.DecodeTable(rep.Result)
	if err != nil {
		return fmt.Errorf("client: shard directory %s: %w", r.dir, err)
	}
	r.table = t
	r.ring = shard.NewRing(t)
	return nil
}

// InvokeOption parameterizes one routed invocation. It takes the options
// and returns them changed, by value, so that Invoke keeps them on its
// stack.
type InvokeOption func(invokeOpts) invokeOpts

type invokeOpts struct {
	key string
}

// WithShardKey declares the key class the invocation is routed by — its
// home shard orders and executes the request. Required on every routed
// Invoke.
func WithShardKey(key string) InvokeOption {
	return func(o invokeOpts) invokeOpts { o.key = key; return o }
}

// Invoke routes a method invocation to its key's home shard group. A
// wrong-shard redirect comes back as the reply's error, with
// CodeRedirect.
func (r *Router) Invoke(method string, args []byte, opts ...InvokeOption) ([]byte, error) {
	var o invokeOpts
	for _, opt := range opts {
		o = opt(o)
	}
	if o.key == "" {
		return nil, errors.New("client: routed invoke requires WithShardKey")
	}
	if r.ring == nil {
		if err := r.Refresh(); err != nil {
			return nil, err
		}
	}
	rep, err := r.c.invokeReply(r.ring.HomeGroup(o.key), method, args, o.key)
	if err != nil {
		return nil, err
	}
	if rep.Code == replica.CodeRedirect {
		r.redirects.Inc()
	} else {
		r.routed.Inc()
	}
	return rep.Result, rep.Failure()
}
