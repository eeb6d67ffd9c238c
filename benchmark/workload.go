package main

import (
	"bytes"
	"encoding/binary"
	"fmt"

	replobj "github.com/replobj/replobj"
	"github.com/replobj/replobj/internal/replica"
)

const replicasPerGroup = 3

// request is one generated invocation. The program under test sees only
// these; the seed never reaches it.
type request struct {
	method   string
	args     []byte
	shardKey string // routed (sharded) workloads only
}

// script is one client's deterministic request stream together with the
// client-side model of what that client's successful requests did.
type script interface {
	// next generates the client's next request.
	next() request
	// applied checks a successful reply and folds the request into the model.
	applied(req request, reply []byte) error
}

// readAllFunc reads one method from every replica of a group (policy All).
type readAllFunc func(g replobj.GroupID, method string) (map[replobj.NodeID]replica.Reply, error)

// deployment is a workload's started object: the groups to check for trace
// divergence and where clients send requests.
type deployment struct {
	groups []hosted // every hosted group, directory included
	data   []hosted // groups holding application state, in shard order
	object string   // routed workloads: the sharded object name ("" = invoke data[0] directly)
	homes  []int    // KV workloads: key → index into data
	start  func()
}

// hosted is a group with its id (Group does not export it).
type hosted struct {
	id replobj.GroupID
	g  *replobj.Group
}

func plainDeployment(id replobj.GroupID, g *replobj.Group) *deployment {
	h := []hosted{{id, g}}
	return &deployment{groups: h, data: h, start: g.Start}
}

// workload is one benchmark cell. Names are fixed: later issues cite them.
type workload struct {
	name string
	why  string
	// warmup is the fixed per-client warm-up invocation count, sized so that
	// set-up takes a little over two seconds on the two-core reference
	// machine. It is a constant, never derived from timing.
	warmup    int
	scheduler replobj.SchedulerKind
	// method and payload sizes of the typical request and reply, for the
	// wire and transport probes.
	method               string
	argBytes, replyBytes int
	deploy               func(c *replobj.Cluster) (*deployment, error)
	// preload, when set, issues the ordered invocations that build the
	// initial state.
	preload   func(d *deployment, invoke func(request) ([]byte, error)) error
	newScript func(seed int64, client, nclients int, d *deployment) script
	// verify reads the final state from every replica of every data group
	// and compares it across replicas and against the scripts' models.
	verify func(d *deployment, scripts []script, readAll readAllFunc) error
}

var workloads = []*workload{
	{
		name:      "counter-seq",
		why:       "SEQ counter, 1-byte add: handler and scheduler idle, so client+wire+transport+gcs+replica dispatch+vtime are the whole cost (fixed per-request overhead)",
		warmup:    13000,
		scheduler: replobj.SEQ,
		method:    "add",
		argBytes:  1, replyBytes: 8,
		deploy:  deployCounter,
		preload: func(*deployment, func(request) ([]byte, error)) error { return nil },
		newScript: func(seed int64, client, _ int, _ *deployment) script {
			return &counterScript{rng: newPRNG(seed, client)}
		},
		verify: verifyCounter,
	},
	{
		name:      "locks-mat",
		why:       "ADETS-MAT, 8 nested seeded mutexes of 32 with real ALU under each and overlapping client windows: 16 scheduler operations per request put the load on adets under real blocking",
		warmup:    7500,
		scheduler: replobj.MAT,
		method:    "work8",
		argBytes:  lockPerOp + 8, replyBytes: 8,
		deploy:    deployLocks,
		newScript: func(seed int64, client, _ int, _ *deployment) script { return newLockScript(seed, client) },
		verify:    verifyLocks,
	},
	{
		name:      "kv-cc-spec",
		why:       "ADETS-CC + speculation + checkpoints over a 1 MiB KV image, 50% put: spec forks the whole image per request and runs every handler twice, so spec+replica do most of the work",
		warmup:    900,
		scheduler: replobj.CC,
		method:    "put",
		argBytes:  kvRecord, replyBytes: kvValSize,
		deploy: func(c *replobj.Cluster) (*deployment, error) {
			return deployKV(c, false)
		},
		preload: preloadKV,
		newScript: func(seed int64, client, nclients int, d *deployment) script {
			return newKVScript(seed, client, nclients, 50, false)
		},
		verify: verifyKV,
	},
	{
		name:      "kv-sharded",
		why:       "2 shards x 3 replicas + directory in one process, ADETS-CC, 90% get through the shard router, no speculation: the read-heavy CC path plus shard routing and nine replicas on one runtime mutex",
		warmup:    10000,
		scheduler: replobj.CC,
		method:    "get",
		argBytes:  2, replyBytes: kvValSize,
		deploy: func(c *replobj.Cluster) (*deployment, error) {
			return deployKV(c, true)
		},
		preload: preloadKV,
		newScript: func(seed int64, client, nclients int, d *deployment) script {
			return newKVScript(seed, client, nclients, 10, true)
		},
		verify: verifyKV,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// prng is splitmix64: tiny, seedable, and identical on every Go release, so
// a seed names the same request stream forever.
type prng uint64

func newPRNG(seed int64, stream int) prng {
	p := prng(uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream+1)*0xd1342543de82ef95)
	p.next()
	return p
}

func (p *prng) next() uint64 {
	*p += 0x9e3779b97f4a7c15
	z := uint64(*p)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func u64(v uint64) []byte {
	out := make([]byte, 8)
	binary.BigEndian.PutUint64(out, v)
	return out
}

func sameReplies(replies map[replobj.NodeID]replica.Reply, want int) ([]byte, error) {
	if len(replies) != want {
		return nil, fmt.Errorf("got %d replies, want %d", len(replies), want)
	}
	var first []byte
	var firstNode replobj.NodeID
	for node, rep := range replies {
		if rep.Err != "" {
			return nil, fmt.Errorf("%s: %s", node, rep.Err)
		}
		if firstNode == "" {
			first, firstNode = rep.Result, node
			continue
		}
		if !bytes.Equal(first, rep.Result) {
			return nil, fmt.Errorf("replicas disagree: %s and %s hold different state", firstNode, node)
		}
	}
	return first, nil
}
