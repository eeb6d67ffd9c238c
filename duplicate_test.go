package replobj_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	replobj "github.com/replobj/replobj"
	"github.com/replobj/replobj/internal/gcs"
	"github.com/replobj/replobj/internal/replica"
	"github.com/replobj/replobj/internal/transport"
	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

// A client retransmission of a request that is already ordered draws no
// second delivery: the replica answers it from the reply cache through the
// group layer's duplicate-submit hook, or with a typed refusal once the
// reply has aged out.

// submitFor builds the raw wire Submit a client would send for a request —
// the injection vehicle for the duplicate-retransmission regressions.
func submitFor(group replobj.GroupID, id wire.InvocationID, method string, args []byte, replyTo replobj.NodeID) *gcs.Submit {
	return &gcs.Submit{
		Group:  group,
		ID:     id.String(),
		Origin: replyTo,
		Payload: replica.Request{
			ID:      id,
			Group:   group,
			Method:  method,
			Args:    args,
			Kind:    replica.KindClient,
			ReplyTo: replyTo,
		},
	}
}

// TestDuplicateAfterEvictionReturnsTypedError is the regression for the
// silent-drop bug: a client retransmission whose reply-cache entry was
// already evicted by the checkpoint eviction pass (evictStableLocked) was
// dropped without an answer, leaving the client to retry forever. The
// replica must answer with the typed expired-duplicate error instead.
func TestDuplicateAfterEvictionReturnsTypedError(t *testing.T) {
	rt := vtime.Virtual()
	net := transport.NewInproc(rt)
	reg := replobj.NewMetricsRegistry()
	c := replobj.NewCluster(rt, replobj.WithNetwork(net), replobj.WithMetrics(reg))
	const ckptEvery = 4
	counterGroup(t, c, "cnt", 3, replobj.WithCheckpointEvery(ckptEvery))
	run(rt, c, func() {
		inj := net.Endpoint("inj")
		id := wire.InvocationID{Logical: "inj#1", Seq: 0}
		sub := submitFor("cnt", id, "add", []byte{1}, "inj")
		members := c.Directory().Members("cnt")
		// Watchdog: on the buggy code the resend is silently dropped and
		// Recv would block forever; close the endpoint after a (virtual)
		// grace period so the test fails instead of hanging.
		stop := make(chan struct{})
		rt.Go("watchdog", func() {
			for i := 0; i < 100; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rt.Sleep(100 * time.Millisecond)
			}
			inj.Close()
		})
		for _, m := range members {
			inj.Send(m, sub)
		}
		for range members {
			msg, ok := inj.Recv()
			if !ok {
				t.Fatal("endpoint closed before the original replies arrived")
			}
			if rep := msg.Payload.(*replica.Reply); rep.Err != "" {
				t.Fatalf("original invoke failed: %s", rep.Err)
			}
		}
		// Age the entry out: enough ordered positions that a checkpoint's
		// eviction floor (seq - 2*ckptEvery) passes the injected request.
		cl := c.NewClient("pad")
		for i := 0; i < 4*ckptEvery; i++ {
			if _, err := cl.Invoke("cnt", "add", []byte{1}); err != nil {
				t.Fatalf("padding invoke: %v", err)
			}
		}
		// Retransmit: the member classifies it as a duplicate of an ordered
		// position below the eviction floor.
		for _, m := range members {
			inj.Send(m, sub)
		}
		for range members {
			msg, ok := inj.Recv()
			if !ok {
				t.Fatal("retransmission was silently dropped (no reply before watchdog)")
			}
			rep := msg.Payload.(*replica.Reply)
			if rep.Err == "" {
				t.Fatalf("expected a typed expired-duplicate error, got success %v", rep.Result)
			}
			if !replobj.IsExpiredDuplicate(rep.Failure()) {
				t.Fatalf("reply %+v is not the typed expired-duplicate error", rep)
			}
			// The code is the protocol; the text is what replclient prints.
			if !strings.HasPrefix(rep.Err, "replica: duplicate expired: reply evicted at stream position ") {
				t.Errorf("operator-facing text changed: %q", rep.Err)
			}
		}
		close(stop)
		var expired uint64
		for i := 0; i < 3; i++ {
			expired += reg.Counter(fmt.Sprintf(`replobj_replica_duplicate_expired_total{node="cnt/%d"}`, i)).Value()
		}
		if expired == 0 {
			t.Error("duplicate_expired_total not incremented")
		}
		if groupCounter(reg, "replobj_replica_checkpoints_total", "cnt", 3) == 0 {
			t.Error("no replica took a checkpoint")
		}
	})
}

// TestDuplicateSubmitMetricSplit is the regression for the metric
// mislabeling: a retransmission answered from the reply cache via the
// group-layer duplicate hook was counted as a reply-cache *hit* — the
// metric for dispatch-time duplicates in the ordered stream. The two paths
// must count separately.
func TestDuplicateSubmitMetricSplit(t *testing.T) {
	rt := vtime.Virtual()
	net := transport.NewInproc(rt)
	reg := replobj.NewMetricsRegistry()
	c := replobj.NewCluster(rt, replobj.WithNetwork(net), replobj.WithMetrics(reg))
	counterGroup(t, c, "cnt", 3)
	run(rt, c, func() {
		inj := net.Endpoint("inj")
		id := wire.InvocationID{Logical: "inj#1", Seq: 0}
		sub := submitFor("cnt", id, "add", []byte{1}, "inj")
		members := c.Directory().Members("cnt")
		for _, m := range members {
			inj.Send(m, sub)
		}
		for range members {
			if _, ok := inj.Recv(); !ok {
				t.Fatal("endpoint closed")
			}
		}
		// Retransmit while the reply is still cached: every member replays
		// it through the duplicate-submit hook.
		for _, m := range members {
			inj.Send(m, sub)
		}
		for range members {
			msg, ok := inj.Recv()
			if !ok {
				t.Fatal("endpoint closed")
			}
			rep := msg.Payload.(*replica.Reply)
			if rep.Err != "" || fromU64(rep.Result) != 1 {
				t.Fatalf("replayed reply = %v/%q, want the cached result 1", rep.Result, rep.Err)
			}
		}
		var dupReplies, cacheHits uint64
		for i := 0; i < 3; i++ {
			dupReplies += reg.Counter(fmt.Sprintf(`replobj_replica_duplicate_submit_replies_total{node="cnt/%d"}`, i)).Value()
			cacheHits += reg.Counter(fmt.Sprintf(`replobj_replica_reply_cache_hits_total{node="cnt/%d"}`, i)).Value()
		}
		if dupReplies != 3 {
			t.Errorf("duplicate_submit_replies_total = %d, want 3 (one per member)", dupReplies)
		}
		if cacheHits != 0 {
			t.Errorf("reply_cache_hits_total = %d, want 0 — the group-layer replay path must not count as a dispatch-time cache hit", cacheHits)
		}
	})
}
