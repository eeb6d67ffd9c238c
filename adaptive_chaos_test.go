package replobj_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	replobj "github.com/replobj/replobj"
	"github.com/replobj/replobj/internal/adets/adaptive"
	"github.com/replobj/replobj/internal/faultnet"
	"github.com/replobj/replobj/internal/transport"
	"github.com/replobj/replobj/internal/vtime"
)

// adaptivePlan returns a switching schedule alternating between the two
// full-capability kinds at every epoch, forcing switches at exact stream
// positions regardless of what the workload looks like.
func adaptivePlan(epochs uint64) map[uint64]replobj.SchedulerKind {
	plan := make(map[uint64]replobj.SchedulerKind, epochs)
	for e := uint64(1); e <= epochs; e++ {
		if e%2 == 1 {
			plan[e] = replobj.MAT
		} else {
			plan[e] = replobj.ADSAT
		}
	}
	return plan
}

// adaptiveOf unwraps a rank's scheduler as the adaptive meta-scheduler.
func adaptiveOf(t *testing.T, g *replobj.Group, rank int) *adaptive.Scheduler {
	t.Helper()
	as, ok := g.Replica(rank).Scheduler().(*adaptive.Scheduler)
	if !ok {
		t.Fatalf("rank %d scheduler is %T, not the adaptive meta-scheduler", rank, g.Replica(rank).Scheduler())
	}
	return as
}

// TestChaosAdaptiveSwitch is the adaptive-scheduler chaos scenario: a
// 5-replica group under seeded network faults switches strategies at every
// sixth stream position while checkpointing every eighth; a follower
// crashes between switches, the log is truncated past its position, and it
// rejoins via snapshot state transfer. The oracle:
//
//   - at-most-once execution: the counter equals the number of client adds;
//   - the rejoiner adopts the donors' scheduler epoch, generation, kind and
//     switch history from the snapshot's scheduler metadata (replaying the
//     truncated prefix to re-derive them is impossible — it is gone);
//   - full trace digests of all five replicas agree, switch events
//     included.
func TestChaosAdaptiveSwitch(t *testing.T) {
	const (
		replicas        = 5
		clients         = 2
		invokesPerPhase = 6
		phases          = 3
		every           = 8
	)
	rt := vtime.Virtual()
	reg := replobj.NewMetricsRegistry()
	fnet := faultnet.New(rt, transport.NewInproc(rt), faultnet.Mild(), chaosSeed)
	c := replobj.NewCluster(rt, replobj.WithNetwork(fnet), replobj.WithMetrics(reg))
	g := ckptCounterGroup(t, c, "cnt", replicas,
		replobj.WithAdaptive(replobj.AdaptiveConfig{Epoch: 6, MinWindow: 1, Plan: adaptivePlan(64)}),
		replobj.WithSchedTrace(0),
		replobj.WithFailureDetection(true),
		replobj.WithQuorum(),
		replobj.WithCheckpointEvery(every))
	members := g.Members()

	run(rt, c, func() {
		phaseN := 0
		phase := func() {
			phaseN++
			done := vtime.NewMailbox[error](rt, fmt.Sprintf("adphase%d", phaseN))
			for ci := 0; ci < clients; ci++ {
				name := fmt.Sprintf("ad%dc%d", phaseN, ci)
				rt.Go("client/"+name, func() {
					cl := c.NewClient(name,
						replobj.WithRetransmit(300*time.Millisecond),
						replobj.WithInvocationTimeout(60*time.Second))
					var err error
					for i := 0; i < invokesPerPhase && err == nil; i++ {
						_, err = cl.Invoke("cnt", "add", []byte{1})
					}
					done.Put(err)
				})
			}
			for i := 0; i < clients; i++ {
				if err, _ := done.Get(); err != nil {
					t.Fatalf("chaos seed %d: phase %d client error: %v", chaosSeed, phaseN, err)
				}
			}
		}

		// Phase 1 crosses the first switch boundaries with everyone up, then
		// the follower crashes between switches.
		phase()
		genAtCrash := adaptiveOf(t, g, 0).Generation()
		fnet.Crash(members[3])
		rt.Sleep(600 * time.Millisecond)

		// Two more phases cross further switches and checkpoint boundaries,
		// truncating the log past everything the follower has seen.
		phase()
		phase()

		// Rejoin: the tail is gone, so the follower is restored by snapshot —
		// scheduler metadata included.
		fnet.Restore(members[3])
		rt.Sleep(1200 * time.Millisecond)
		fnet.Quiesce()
		rt.Sleep(1500 * time.Millisecond)

		reader := c.NewClient("reader",
			replobj.WithRetransmit(300*time.Millisecond),
			replobj.WithInvocationTimeout(60*time.Second))
		v, err := reader.Invoke("cnt", "get", nil)
		if err != nil {
			t.Fatalf("chaos seed %d: final get: %v", chaosSeed, err)
		}
		want := uint64(clients * invokesPerPhase * phases)
		if got := fromU64(v); got != want {
			t.Errorf("chaos seed %d: counter = %d, want %d (at-most-once violated)", chaosSeed, got, want)
		}
		rt.Sleep(100 * time.Millisecond)

		// The run must actually have switched — before the crash and again
		// after it, so the rejoiner's adopted generation postdates its own
		// delivered prefix.
		ref := adaptiveOf(t, g, 0)
		if ref.Switches() == 0 {
			t.Fatalf("chaos seed %d: no switch performed — the scenario is vacuous", chaosSeed)
		}
		if ref.Generation() <= genAtCrash {
			t.Errorf("chaos seed %d: generation %d did not advance past the crash point %d",
				chaosSeed, ref.Generation(), genAtCrash)
		}
		installed := reg.Counter(`replobj_gcs_snapshots_installed_total{node="` + string(members[3]) + `"}`).Value()
		if installed == 0 {
			t.Errorf("chaos seed %d: rejoiner caught up without a snapshot — log was not truncated past its position", chaosSeed)
		}

		// Every replica — the snapshot-restored rejoiner included — agrees on
		// the full scheduler meta-state.
		for rank := 1; rank < replicas; rank++ {
			as := adaptiveOf(t, g, rank)
			if as.CurrentKind() != ref.CurrentKind() || as.Epoch() != ref.Epoch() ||
				as.Generation() != ref.Generation() || as.Switches() != ref.Switches() ||
				!reflect.DeepEqual(as.History(), ref.History()) {
				t.Errorf("chaos seed %d: rank %d scheduler state (kind %s epoch %d gen %d switches %d) != rank 0 (kind %s epoch %d gen %d switches %d)",
					chaosSeed, rank, as.CurrentKind(), as.Epoch(), as.Generation(), as.Switches(),
					ref.CurrentKind(), ref.Epoch(), ref.Generation(), ref.Switches())
			}
		}

		// And on the full trace streams — the "sched" stream carries the
		// switch events, so any replica switching at a different position or
		// to a different kind surfaces here.
		refTrace := g.Trace(0)
		for rank := 1; rank < replicas; rank++ {
			if d := replobj.FirstTraceDivergence(refTrace, g.Trace(rank)); d != nil {
				t.Errorf("chaos seed %d: rank 0 vs rank %d diverged: %v", chaosSeed, rank, d)
			}
		}
		if cnt := fnet.Counts(); cnt.Messages == 0 ||
			cnt.Dropped+cnt.Duplicated+cnt.Delayed+cnt.Reordered+cnt.Corrupted+cnt.PartDrops == 0 {
			t.Errorf("chaos seed %d: no faults injected (%+v) — run was vacuous", chaosSeed, cnt)
		}
	})
	rt.Stop()
}

// TestAdaptiveSwitchTimingIndependent replays the same single-client
// workload under two very different network timing profiles (no jitter vs
// heavy jitter) and requires identical switch histories: the decision is a
// function of the ordered stream, and a single sequential client fixes that
// stream regardless of delivery timing.
func TestAdaptiveSwitchTimingIndependent(t *testing.T) {
	type outcome struct {
		history  []adaptive.Transition
		kind     string
		switches uint64
	}
	runOnce := func(jitter time.Duration, seed int64) outcome {
		rt := vtime.Virtual()
		c := replobj.NewCluster(rt, replobj.WithNetwork(transport.NewInproc(rt, transport.WithJitter(jitter, seed))))
		g := ckptCounterGroup(t, c, "cnt", 3,
			replobj.WithAdaptive(replobj.AdaptiveConfig{Epoch: 5, MinWindow: 1}))
		var out outcome
		run(rt, c, func() {
			cl := c.NewClient("solo", replobj.WithInvocationTimeout(60*time.Second))
			for i := 0; i < 25; i++ {
				if _, err := cl.Invoke("cnt", "add", []byte{1}); err != nil {
					t.Fatalf("invoke %d: %v", i, err)
				}
			}
			as := adaptiveOf(t, g, 0)
			out = outcome{history: as.History(), kind: as.CurrentKind(), switches: as.Switches()}
		})
		rt.Stop()
		return out
	}
	calm := runOnce(0, 1)
	noisy := runOnce(400*time.Microsecond, 99)
	if !reflect.DeepEqual(calm, noisy) {
		t.Errorf("switch outcome depends on delivery timing:\n  calm:  %+v\n  noisy: %+v", calm, noisy)
	}
	if calm.switches == 0 {
		t.Error("workload produced no switches; the timing assertion is vacuous")
	}
}
