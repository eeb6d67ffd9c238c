package replica

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/replobj/replobj/internal/adets/sat"
	"github.com/replobj/replobj/internal/gcs"
	"github.com/replobj/replobj/internal/obs"
	"github.com/replobj/replobj/internal/transport"
	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

// newCkptReplica is newOneReplica with checkpointing enabled and the state
// factory state (nil: state-less).
func newCkptReplica(t *testing.T, execCount *int, every int, state func() any) *oneReplica {
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
		Trace:           obs.NewTrace(0),
		State:           state,
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
// the reply cache must not grow with the stream — rows older than two
// checkpoint intervals are dropped at each boundary, the ids of unnumbered
// requests and the rows of clients that made one call and went idle alike.
func TestReplyCacheEvictedAtCheckpoints(t *testing.T) {
	t.Run("ids", func(t *testing.T) { testReplyCacheEvicted(t, false) })
	t.Run("clients", func(t *testing.T) { testReplyCacheEvicted(t, true) })
}

func testReplyCacheEvicted(t *testing.T, numbered bool) {
	execs := 0
	const every = 4
	h := newCkptReplica(t, &execs, every, nil)
	defer h.rt.Stop()
	vtime.Run(h.rt, "main", func() {
		defer h.r.Stop()
		defer h.cl.Close()
		const n = 40
		for i := 0; i < n; i++ {
			if !numbered {
				h.submit(wire.InvocationID{Logical: wire.LogicalID(fmt.Sprintf("client/t#%d", i))}, "echo", []byte("x"))
				h.recvReply(t)
				continue
			}
			ep := h.net.Endpoint(wire.ClientID(fmt.Sprintf("c%d", i)))
			id := wire.InvocationID{Logical: wire.LogicalID(ep.ID() + "#1")}
			req := Request{ID: id, Group: "g", Method: "echo", Args: []byte("x"), Kind: KindClient, ReplyTo: ep.ID(), Call: 1}
			ep.Send(wire.ReplicaID("g", 0), gcs.Submit{Group: "g", ID: id.String(), Origin: ep.ID(), Payload: req})
			if _, ok := recvOne(h.rt, ep, 5*time.Second); !ok {
				t.Fatalf("%s: no reply", ep.ID())
			}
			ep.Close()
		}
		h.rt.Lock()
		cached, seen := h.r.held, len(h.r.amo)+len(h.r.clients)
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
	h := newCkptReplica(t, &execs, every, nil)
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

// TestInstallSnapshotCarriesTheTable: a replica restored by state transfer
// has the donor's at-most-once table row for row — each client's latest call
// and the reply held for it — so it
// answers duplicates exactly as the donor does, and its order digest
// continues the donor's. A snapshot that does not decode is counted and
// breaks the digest instead of passing in silence.
func TestInstallSnapshotCarriesTheTable(t *testing.T) {
	const every = 4
	var execs, execs2 int
	donor, rejoiner := newCkptReplica(t, &execs, every, nil), newCkptReplica(t, &execs2, every, nil)
	defer donor.rt.Stop()
	defer rejoiner.rt.Stop()
	request := func(ep transport.Endpoint, k int) Request {
		id := wire.InvocationID{Logical: wire.LogicalID(fmt.Sprintf("%s#%d", ep.ID(), k))}
		return Request{ID: id, Group: "g", Method: "echo", Args: []byte(id.String()), Kind: KindClient, ReplyTo: ep.ID(), Call: uint64(k + 1)}
	}
	const clients = 2
	var snap gcs.Snapshot
	vtime.Run(donor.rt, "donor", func() {
		defer donor.r.Stop()
		defer donor.cl.Close()
		eps := [clients]transport.Endpoint{donor.cl, donor.net.Endpoint(wire.ClientID("u"))}
		for k := 0; k < 2*every; k++ { // the last request lands on a checkpoint
			ep := eps[k%clients]
			req := request(ep, k/clients)
			if k == 0 {
				req.Call = 0 // one unnumbered request: a row of the id window
			}
			ep.Send(wire.ReplicaID("g", 0), gcs.Submit{Group: "g", ID: req.ID.String(), Origin: ep.ID(), Payload: req})
			if _, ok := recvOne(donor.rt, ep, 5*time.Second); !ok {
				t.Fatalf("no reply to %v", req.ID)
			}
		}
		donor.rt.Sleep(10 * time.Millisecond)
		// The log below the checkpoint is gone: a NACK draws the snapshot.
		donor.cl.Send(wire.ReplicaID("g", 0), gcs.Nack{Group: "g", From: donor.cl.ID(), Want: 1})
		msg, _ := recvOne(donor.rt, donor.cl, 5*time.Second)
		snap, _ = msg.Payload.(gcs.Snapshot)
	})
	if snap.Seq != 2*every {
		t.Fatalf("donor served snapshot %d, want the checkpoint at %d", snap.Seq, 2*every)
	}
	vtime.Run(rejoiner.rt, "rejoiner", func() {
		defer rejoiner.r.Stop()
		defer rejoiner.cl.Close()
		rejoiner.r.installSnapshot(gcs.Delivery{Seq: snap.Seq, Snapshot: snap.Data})
		d, r := donor.r, rejoiner.r
		if !reflect.DeepEqual(d.amo, r.amo) || !reflect.DeepEqual(d.clients, r.clients) || d.held != r.held || d.heldBytes != r.heldBytes {
			t.Errorf("restored table differs from the donor's:\n  %v %v %d %d\n  %v %v %d %d",
				d.amo, d.clients, d.held, d.heldBytes, r.amo, r.clients, r.held, r.heldBytes)
		}
		if r.held != clients+1 || len(r.clients) != clients || len(r.amo) != 1 || r.amoOrder.Len() != 1 {
			t.Errorf("restored table holds %d replies in %d client rows and %d id rows, want %d in %d and 1",
				r.held, len(r.clients), len(r.amo), clients+1, clients)
		}
		dc, dd := d.trace.Digest("order")
		if rc, rd := r.trace.Digest("order"); rc != dc || rd != dd {
			t.Errorf("order stream restored at (%d, %x), the donor is at (%d, %x)", rc, rd, dc, dd)
		}
		for _, ep := range [clients]transport.Endpoint{rejoiner.cl, rejoiner.net.Endpoint(wire.ClientID("u"))} {
			latest, older := request(ep, every-1), request(ep, every-2)
			r.dispatchRequest(latest, 99)
			msg, _ := recvOne(rejoiner.rt, ep, 5*time.Second)
			if rep, _ := msg.Payload.(Reply); string(rep.Result) != latest.ID.String() || rep.From != r.self {
				t.Errorf("%s: latest request answered %+v after the restore", ep.ID(), rep)
			}
			r.dispatchRequest(older, 99)
			msg, _ = recvOne(rejoiner.rt, ep, 5*time.Second)
			if rep, _ := msg.Payload.(Reply); rep.Code != CodeExpiredDuplicate {
				t.Errorf("%s: superseded request answered %+v after the restore", ep.ID(), rep)
			}
		}
		if execs2 != 0 {
			t.Errorf("the restored replica ran the handler %d times", execs2)
		}
		count, digest := r.trace.Digest("order")
		r.installSnapshot(gcs.Delivery{Seq: snap.Seq + 4, Snapshot: []byte("not a snapshot")})
		if c2, d2 := r.trace.Digest("order"); r.snapErrors.Value() != 1 || c2 != count+1 || d2 == digest {
			t.Errorf("undecodable snapshot: %d errors counted, order stream (%d, %x) -> (%d, %x)",
				r.snapErrors.Value(), count, digest, c2, d2)
		}
	})
}

// flakyState is a one-byte state whose Snapshot and Restore fail on demand.
type flakyState struct {
	v                         byte
	failSnapshot, failRestore bool
}

func (s *flakyState) Snapshot() ([]byte, error) {
	if s.failSnapshot {
		return nil, errors.New("snapshot refused")
	}
	return []byte{s.v}, nil
}

func (s *flakyState) Restore(b []byte) error {
	if s.failRestore || len(b) != 1 {
		return errors.New("restore refused")
	}
	s.v = b[0]
	return nil
}

// TestImageFailuresAreCounted: a checkpoint whose Snapshot fails is counted
// as skipped and marked in the order stream, and a snapshot whose Restore
// fails is counted and marked like one that does not decode. Neither passes
// in silence, and neither leaves the dispatch goroutine stuck at the gate.
func TestImageFailuresAreCounted(t *testing.T) {
	const every = 4
	execs := 0
	h := newCkptReplica(t, &execs, every, func() any { return &flakyState{} })
	defer h.rt.Stop()
	vtime.Run(h.rt, "main", func() {
		defer h.r.Stop()
		defer h.cl.Close()
		r := h.r
		st := r.state.(*flakyState)
		marked := func(subject, detail string) bool {
			for _, e := range r.trace.Snapshot()["order"].Events {
				if e.Kind == obs.KindCheckpoint && e.Subject == subject && e.Detail == detail {
					return true
				}
			}
			return false
		}
		call := 0
		invoke := func() {
			call++
			h.submit(wire.InvocationID{Logical: wire.LogicalID(fmt.Sprintf("client/t#%d", call))}, "echo", []byte("x"))
			h.recvReply(t)
		}

		h.rt.Lock()
		st.failSnapshot = true
		h.rt.Unlock()
		for range every {
			invoke()
		}
		h.rt.Sleep(10 * time.Millisecond) // the checkpoint follows the reply
		if r.ckptSkipped.Value() != 1 || r.checkpoints.Value() != 0 || !marked("ckpt", "4/snapshot-failed") {
			t.Errorf("failed snapshot: %d skipped, %d taken, marked %v; want 1, 0, true",
				r.ckptSkipped.Value(), r.checkpoints.Value(), marked("ckpt", "4/snapshot-failed"))
		}

		env := snapshotEnvelope{Seq: 8, State: []byte{7}}
		h.rt.Lock()
		st.failSnapshot, st.failRestore = false, true
		h.rt.Unlock()
		r.installSnapshot(gcs.Delivery{Seq: 8, Snapshot: env.encode(nil)})
		if r.snapErrors.Value() != 1 || !marked("snapshot-install-failed", "8") {
			t.Errorf("failed restore: %d install errors, marked %v; want 1, true",
				r.snapErrors.Value(), marked("snapshot-install-failed", "8"))
		}
		invoke() // the gate is free again

		h.rt.Lock()
		st.failRestore = false
		h.rt.Unlock()
		r.installSnapshot(gcs.Delivery{Seq: 8, Snapshot: env.encode(nil)})
		if r.snapErrors.Value() != 1 || st.v != 7 {
			t.Errorf("install: %d install errors, state %d; want 1, 7", r.snapErrors.Value(), st.v)
		}
	})
}
