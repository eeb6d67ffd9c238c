package gcs

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/replobj/replobj/internal/obs"
	"github.com/replobj/replobj/internal/wire"
)

// TestBatchingDeliversSameOrder drives a submit burst through a sequencer
// with batching enabled and checks that (a) every member still delivers the
// identical total order, and (b) at least one multi-submit round actually
// crossed the wire — the burst arrives well inside MaxBatchDelay, so the
// sequencer must coalesce.
func TestBatchingDeliversSameOrder(t *testing.T) {
	reg := obs.NewRegistry()
	var seqStats *Stats
	h := newHarnessCfg(3, false, func(c *Config) {
		c.MaxBatch = 8
		c.MaxBatchDelay = time.Millisecond
		if c.Self == wire.ReplicaID("g", 0) {
			seqStats = NewStats(reg, string(c.Self))
			c.Stats = seqStats
		}
	})
	h.run(func() {
		cl1 := h.net.Endpoint(wire.ClientID("c1"))
		cl2 := h.net.Endpoint(wire.ClientID("c2"))
		defer cl1.Close()
		defer cl2.Close()
		const n = 20
		for i := 0; i < n; i++ {
			h.submitFromClient(cl1, fmt.Sprintf("a%02d", i), "a")
			h.submitFromClient(cl2, fmt.Sprintf("b%02d", i), "b")
		}
		ref := ids(take(t, h.rt, h.members[0], 2*n))
		for i := 1; i < 3; i++ {
			got := ids(take(t, h.rt, h.members[i], 2*n))
			if !reflect.DeepEqual(ref, got) {
				t.Errorf("member %d order differs:\n  m0: %v\n  m%d: %v", i, ref, i, got)
			}
		}
		if seqStats.Batches.Value() == 0 {
			t.Error("sequencer formed no multi-submit batches under a concurrent burst")
		}
		if got := seqStats.BatchedSubmits.Value(); got < 2 {
			t.Errorf("BatchedSubmits = %d, want >= 2", got)
		}
	})
}

// TestBatchDelayZeroKeepsSingleRounds checks the default configuration's
// latency guarantee: with MaxBatchDelay 0, a submit that arrives alone is
// ordered in the same event that received it, as a single-form Ordered —
// identical wire traffic to the unbatched protocol.
func TestBatchDelayZeroKeepsSingleRounds(t *testing.T) {
	reg := obs.NewRegistry()
	var seqStats *Stats
	h := newHarnessCfg(3, false, func(c *Config) {
		if c.Self == wire.ReplicaID("g", 0) {
			seqStats = NewStats(reg, string(c.Self))
			c.Stats = seqStats
		}
	})
	h.run(func() {
		cl := h.net.Endpoint(wire.ClientID("c1"))
		defer cl.Close()
		const n = 10
		for i := 0; i < n; i++ {
			h.submitFromClient(cl, fmt.Sprintf("m%02d", i), "x")
		}
		got := ids(take(t, h.rt, h.members[2], n))
		if len(got) != n {
			t.Fatalf("delivered %d messages, want %d", len(got), n)
		}
		if b := seqStats.Batches.Value(); b != 0 {
			t.Errorf("Batches = %d with MaxBatchDelay=0 and serial submits, want 0", b)
		}
	})
}

// TestBatchedRoundSurvivesNack loses a batched round on its way to one
// member and checks that NACK recovery — which resends retained single-form
// messages — closes the gap.
func TestBatchedRoundSurvivesNack(t *testing.T) {
	h := newHarnessCfg(3, false, func(c *Config) {
		c.MaxBatch = 8
		c.MaxBatchDelay = time.Millisecond
	})
	h.run(func() {
		cl := h.net.Endpoint(wire.ClientID("c1"))
		defer cl.Close()
		const n = 6
		for i := 0; i < n; i++ {
			h.submitFromClient(cl, fmt.Sprintf("m%02d", i), "x")
		}
		// All members deliver the burst.
		for i := range h.members {
			if got := ids(take(t, h.rt, h.members[i], n)); len(got) != n {
				t.Fatalf("member %d delivered %d, want %d", i, len(got), n)
			}
		}
		// A straggler that never saw the batch asks for the whole range; the
		// sequencer's retained log must cover every sequence number the batch
		// occupied.
		var act actions
		m0 := h.members[0]
		h.rt.Lock()
		m0.handleNackLocked(Nack{Group: h.group, From: h.ids[2], Want: 1}, &act)
		covered := uint64(0)
		h.rt.Unlock()
		act.do(func(_ wire.NodeID, payload any) {
			if o, ok := payload.(Ordered); ok && len(o.Batch) == 0 && o.ID != "" {
				covered++
			}
		})
		if covered < n {
			t.Errorf("NACK resend covered %d single-form messages, want >= %d", covered, n)
		}
	})
}
