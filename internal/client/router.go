package client

import (
	"errors"
	"fmt"
	"time"

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
// Staleness is handled by the redirect protocol: a shard replica that
// validates a request against a different table answers with a
// deterministic CodeRedirect reply carrying its current epoch; the router
// refreshes its table from the directory and retries under bounded
// exponential backoff, up to MaxRedirects times. Like Client, a Router is
// meant for one goroutine at a time.
type Router struct {
	c      *Client
	object string
	dir    wire.GroupID

	maxRedirects int
	backoff      time.Duration
	maxBackoff   time.Duration

	table shard.Table
	ring  *shard.Ring

	routed    *obs.Counter
	redirects *obs.Counter
	cross     *obs.Counter
	epochG    *obs.Gauge
}

// Router defaults.
const (
	DefaultMaxRedirects    = 4
	DefaultRedirectBackoff = 2 * time.Millisecond
	maxRedirectBackoff     = 100 * time.Millisecond
)

// Router returns a routing stub for a sharded object. The first Invoke
// (or an explicit Refresh) fetches the routing table from the object's
// shard directory group.
func (c *Client) Router(object string) *Router {
	r := &Router{
		c:            c,
		object:       object,
		dir:          shard.DirGroup(object),
		maxRedirects: DefaultMaxRedirects,
		backoff:      DefaultRedirectBackoff,
		maxBackoff:   maxRedirectBackoff,
	}
	if c.metrics != nil {
		label := `{client="` + string(c.self) + `",object="` + object + `"}`
		r.routed = c.metrics.Counter("replobj_shard_client_routed_total" + label)
		r.redirects = c.metrics.Counter("replobj_shard_client_redirects_total" + label)
		r.cross = c.metrics.Counter("replobj_shard_client_cross_total" + label)
		r.epochG = c.metrics.Gauge("replobj_shard_client_directory_epoch" + label)
	}
	return r
}

// WithMaxRedirects bounds the redirect-retry loop (returns the router for
// chaining; n < 0 means "no retries", a single attempt).
func (r *Router) WithMaxRedirects(n int) *Router {
	r.maxRedirects = n
	return r
}

// WithRedirectBackoff sets the initial redirect backoff (doubled per
// retry, capped at 100ms).
func (r *Router) WithRedirectBackoff(d time.Duration) *Router {
	if d > 0 {
		r.backoff = d
	}
	return r
}

// Epoch returns the epoch of the cached routing table (0 before the
// first refresh).
func (r *Router) Epoch() uint64 { return r.table.Epoch }

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

// Refresh fetches the routing table from the shard directory and rebuilds
// the ring. Must run on a tracked goroutine (it invokes the directory
// group like any replicated object).
func (r *Router) Refresh() error {
	rep, err := r.c.invokeReply(r.dir, "get", nil, nil)
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
	r.epochG.Set(int64(t.Epoch))
	return nil
}

// InvokeOption parameterizes one routed invocation.
type InvokeOption func(*invokeOpts)

type invokeOpts struct {
	key       string
	crossKeys []string
}

// WithShardKey declares the key class the invocation is routed by — its
// home shard orders and executes the request. Required on every routed
// Invoke.
func WithShardKey(key string) InvokeOption {
	return func(o *invokeOpts) { o.key = key }
}

// WithCrossKey declares an additional key class the invocation touches.
// The request still executes on the primary key's home shard; the handler
// reaches cross keys homed elsewhere through Invocation.InvokeShard (the
// blocking two-group ordered path) and co-homed ones directly. May be
// repeated.
func WithCrossKey(key string) InvokeOption {
	return func(o *invokeOpts) { o.crossKeys = append(o.crossKeys, key) }
}

// Invoke routes a method invocation to its key's home shard group,
// following wrong-shard redirects with bounded backoff.
func (r *Router) Invoke(method string, args []byte, opts ...InvokeOption) ([]byte, error) {
	var o invokeOpts
	for _, opt := range opts {
		opt(&o)
	}
	if o.key == "" {
		return nil, errors.New("client: routed invoke requires WithShardKey")
	}
	backoff := r.backoff
	var wantEpoch uint64
	for attempt := 0; ; attempt++ {
		if r.ring == nil {
			if err := r.Refresh(); err != nil {
				return nil, err
			}
		}
		home := r.ring.HomeGroup(o.key)
		epoch := r.table.Epoch
		rep, err := r.c.invokeReply(home, method, args, func(q replica.Request) replica.Request {
			q.ShardEpoch = epoch
			q.ShardKey = o.key
			q.CrossKeys = o.crossKeys
			return q
		})
		if err != nil {
			return nil, err
		}
		if rep.Code == replica.CodeRedirect {
			r.redirects.Inc()
			if attempt >= r.maxRedirects {
				return nil, fmt.Errorf("client: gave up after %d wrong-shard redirects (last from %s: %s)",
					attempt+1, home, rep.Err)
			}
			if rep.ShardEpoch > wantEpoch {
				wantEpoch = rep.ShardEpoch
			}
			// Bounded backoff before refreshing: during a table update the
			// directory may answer the new epoch before the shard groups have
			// installed it (or vice versa); a short pause lets the EpochMethod
			// deliveries land instead of hammering the directory. Exactly one
			// sleep-and-double per redirect attempt — the poll rounds below
			// reuse the current backoff without compounding it again, so the
			// schedule stays the advertised 2× per retry.
			r.c.rt.Sleep(backoff)
			if backoff *= 2; backoff > r.maxBackoff {
				backoff = r.maxBackoff
			}
			if err := r.Refresh(); err != nil {
				return nil, err
			}
			// The redirecting replica validated against rep.ShardEpoch; a
			// directory answer older than that is itself stale and would only
			// bounce us straight back. Poll the directory a few more rounds
			// under the same backoff before spending another shard attempt.
			for round := 0; r.table.Epoch < wantEpoch && round < r.maxRedirects; round++ {
				r.c.rt.Sleep(backoff)
				if err := r.Refresh(); err != nil {
					return nil, err
				}
			}
			continue
		}
		r.routed.Inc()
		if len(o.crossKeys) > 0 {
			r.cross.Inc()
		}
		return rep.Result, rep.Failure()
	}
}
