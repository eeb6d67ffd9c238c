package replica

import (
	"fmt"
	"testing"

	"github.com/replobj/replobj/internal/adets/sat"
	"github.com/replobj/replobj/internal/obs"
	"github.com/replobj/replobj/internal/transport"
	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

// newCkptReplica is newOneReplica with checkpointing enabled.
func newCkptReplica(t *testing.T, execCount *int, every int) *oneReplica {
	t.Helper()
	rt := vtime.Virtual()
	net := transport.NewInproc(rt)
	dir := NewDirectory()
	dir.Add("g", []wire.NodeID{wire.ReplicaID("g", 0)}, false)
	r := New(Config{
		RT:              rt,
		Group:           "g",
		Self:            wire.ReplicaID("g", 0),
		Directory:       dir,
		Network:         net,
		Scheduler:       sat.New(),
		Metrics:         obs.NewRegistry(),
		CheckpointEvery: every,
	})
	r.Register("echo", func(inv *Invocation) ([]byte, error) {
		rt.Lock()
		*execCount++
		rt.Unlock()
		return inv.Args(), nil
	})
	r.Start()
	return &oneReplica{rt: rt, net: net, r: r, cl: net.Endpoint(wire.ClientID("t")), dir: dir}
}

// TestReplyCacheEvictedAtCheckpoints: under a long duplicate-free workload
// the reply cache must not grow with the stream — entries older than two
// checkpoint intervals are dropped at each boundary.
func TestReplyCacheEvictedAtCheckpoints(t *testing.T) {
	execs := 0
	const every = 4
	h := newCkptReplica(t, &execs, every)
	defer h.rt.Stop()
	vtime.Run(h.rt, "main", func() {
		defer h.r.Stop()
		defer h.cl.Close()
		const n = 40
		for i := 0; i < n; i++ {
			h.submit(wire.InvocationID{Logical: wire.LogicalID(fmt.Sprintf("client/t#%d", i))}, "echo", []byte("x"))
			h.recvReply(t)
		}
		h.rt.Lock()
		cached, seen := len(h.r.cache), len(h.r.seen)
		ckpts := h.r.checkpoints.Value()
		h.rt.Unlock()
		if ckpts == 0 {
			t.Fatal("no checkpoints were taken")
		}
		// The duplicate-detection window is 2*every; everything below the
		// last boundary minus the window must be gone.
		if limit := 3 * every; cached > limit {
			t.Errorf("reply cache holds %d entries after %d requests, want <= %d", cached, n, limit)
		}
		if limit := 3 * every; seen > limit {
			t.Errorf("seen map holds %d entries after %d requests, want <= %d", seen, n, limit)
		}
		if execs != n {
			t.Errorf("executed %d of %d requests", execs, n)
		}
	})
}

// TestCheckpointHandsSnapshotToMember: the serialized envelope reaches the
// group member and truncates its log.
func TestCheckpointHandsSnapshotToMember(t *testing.T) {
	execs := 0
	const every = 4
	h := newCkptReplica(t, &execs, every)
	defer h.rt.Stop()
	vtime.Run(h.rt, "main", func() {
		defer h.r.Stop()
		defer h.cl.Close()
		const n = 10
		for i := 0; i < n; i++ {
			h.submit(wire.InvocationID{Logical: wire.LogicalID(fmt.Sprintf("client/t#%d", i))}, "echo", []byte("x"))
			h.recvReply(t)
		}
		// Last checkpoint at seq 8 (n=10, every=4): the member's log must
		// retain only the tail above it. Single-member view, so the
		// stability watermark never lags.
		if got := h.r.member.LogLen(); got > n-every {
			t.Errorf("member log length = %d, want <= %d after checkpoint truncation", got, n-every)
		}
		h.rt.Lock()
		size := h.r.snapSize.Value()
		h.rt.Unlock()
		if size <= 0 {
			t.Errorf("snapshot size gauge = %d, want > 0", size)
		}
	})
}
