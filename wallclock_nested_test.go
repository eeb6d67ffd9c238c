package replobj_test

// Nested invocations on the wall clock. Every other nested, callback and
// condition-variable test runs in virtual time, where a woken scheduler
// thread runs before the next delivery; over loopback TCP a second request
// can arrive while the worker it woke has not run yet, and a scheduler that
// lets that second arrival wake the worker again leaves a permit the
// worker's next nested call consumes before its reply is there.

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	replobj "github.com/replobj/replobj"
	"github.com/replobj/replobj/internal/transport"
	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

// TestWallClockNestedInvocations: two groups A → B of three replicas each on
// loopback TCP under vtime.Real(), for every scheduler kind. A's handler
// invokes B; B calls back into A once under SAT, ADETS-SAT and ADETS-MAT,
// and answers at once under the other kinds. SEQ and PDS's default nested
// strategy deadlock on a callback by design (the paper's Section 2). Under
// SL, ADETS-CC and ADETS-LSA a callback can still be running on a lagging
// replica when its originator resumes there, and the replicas then
// disagree (ROADMAP item 17). Three clients make 30 calls each: every
// reply must echo its own argument, both groups must count every call on
// every replica (read with InvokeAll), and each group's replicas must agree
// on their order and sched digests.
func TestWallClockNestedInvocations(t *testing.T) {
	const clients, calls = 3, 30
	for _, kind := range replobj.Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			rt := vtime.Real()
			defer rt.Stop()
			addrs := map[wire.NodeID]string{wire.ClientID("reader"): "127.0.0.1:0"}
			for ci := 0; ci < clients; ci++ {
				addrs[wire.ClientID(fmt.Sprintf("c%d", ci))] = "127.0.0.1:0"
			}
			for _, g := range []wire.GroupID{"A", "B"} {
				for i := 0; i < 3; i++ {
					addrs[wire.ReplicaID(g, i)] = "127.0.0.1:0"
				}
			}
			c := replobj.NewCluster(rt, replobj.WithNetwork(transport.NewTCP(rt, addrs)))
			defer c.Close()
			opts := append(groupOptsFor(kind, clients), replobj.WithSchedTrace(0),
				replobj.WithState(func() any { return &nestedCounts{} }))
			a, err := c.NewGroup("A", 3, opts...)
			if err != nil {
				t.Fatal(err)
			}
			b, err := c.NewGroup("B", 3, opts...)
			if err != nil {
				t.Fatal(err)
			}
			callback := kind == replobj.SAT || kind == replobj.ADSAT || kind == replobj.MAT
			a.Register("call", func(inv *replobj.Invocation) ([]byte, error) {
				out, err := inv.Invoke("B", "bounce", inv.Args())
				if err != nil {
					return nil, err
				}
				return out, countCall(inv, false)
			})
			a.Register("cb", func(inv *replobj.Invocation) ([]byte, error) {
				return inv.Args(), countCall(inv, true)
			})
			b.Register("bounce", func(inv *replobj.Invocation) ([]byte, error) {
				out := inv.Args()
				if callback {
					var err error
					if out, err = inv.Invoke("A", "cb", inv.Args()); err != nil {
						return nil, err
					}
				}
				return out, countCall(inv, false)
			})
			for _, g := range []*replobj.Group{a, b} {
				g.Register("get", func(inv *replobj.Invocation) ([]byte, error) {
					if err := inv.Lock("n"); err != nil {
						return nil, err
					}
					defer func() { _ = inv.Unlock("n") }()
					st := inv.State().(*nestedCounts)
					return binary.BigEndian.AppendUint64(u64(st.calls), st.callbacks), nil
				})
			}
			a.Start()
			b.Start()

			done := make(chan error, clients)
			for ci := 0; ci < clients; ci++ {
				name := fmt.Sprintf("c%d", ci)
				go func() {
					cl := c.NewClient(name, replobj.WithInvocationTimeout(10*time.Second))
					for i := 0; i < calls; i++ {
						arg := fmt.Sprintf("%s/%d", name, i)
						out, err := cl.Invoke("A", "call", []byte(arg))
						if err != nil {
							done <- fmt.Errorf("%s: %w", arg, err)
							return
						}
						if string(out) != arg {
							done <- fmt.Errorf("%s: reply %q", arg, out)
							return
						}
					}
					done <- nil
				}()
			}
			for ci := 0; ci < clients; ci++ {
				select {
				case err := <-done:
					if err != nil {
						t.Fatal(err)
					}
				case <-time.After(60 * time.Second):
					t.Fatal("clients timed out on the wall clock")
				}
			}

			reader := c.NewClient("reader", replobj.WithReplyPolicy(replobj.All),
				replobj.WithInvocationTimeout(10*time.Second))
			var wantCallbacks uint64
			if callback {
				wantCallbacks = clients * calls
			}
			for id, g := range map[replobj.GroupID]*replobj.Group{"A": a, "B": b} {
				replies, err := reader.InvokeAll(id, "get", nil)
				if err != nil {
					t.Fatalf("%s.get: %v", id, err)
				}
				want := clients * calls
				cbs := uint64(0)
				if g == a {
					cbs = wantCallbacks
				}
				for node, rep := range replies {
					if len(rep.Result) != 16 || fromU64(rep.Result[:8]) != uint64(want) || fromU64(rep.Result[8:]) != cbs {
						t.Errorf("%v: get = %x (err %q), want %d calls and %d callbacks", node, rep.Result, rep.Err, want, cbs)
					}
				}
				sameDigests(t, id, g, "order", "sched")
			}
		})
	}
}

// nestedCounts is the state of both groups in TestWallClockNestedInvocations.
type nestedCounts struct{ calls, callbacks uint64 }

func countCall(inv *replobj.Invocation, callback bool) error {
	if err := inv.Lock("n"); err != nil {
		return err
	}
	defer func() { _ = inv.Unlock("n") }()
	st := inv.State().(*nestedCounts)
	if callback {
		st.callbacks++
	} else {
		st.calls++
	}
	return nil
}

// sameDigests waits until every replica of group id has recorded as many
// events on each named stream as rank 0 — a replica's scheduler may still be
// recording its last events after it has replied — and requires equal
// digests there. A stream may be empty (most kinds record nothing on
// "sched"), but not on every stream.
func sameDigests(t *testing.T, id replobj.GroupID, g *replobj.Group, streams ...string) {
	t.Helper()
	recorded := false
	for _, stream := range streams {
		deadline := time.Now().Add(5 * time.Second)
		for {
			n0, d0 := g.Trace(0).Digest(stream)
			agree := true
			for rank := 1; rank < 3; rank++ {
				n, d := g.Trace(rank).Digest(stream)
				agree = agree && n == n0 && d == d0
			}
			if agree {
				recorded = recorded || n0 > 0
				break
			}
			if time.Now().After(deadline) {
				for rank := 0; rank < 3; rank++ {
					n, d := g.Trace(rank).Digest(stream)
					t.Errorf("%s rank %d %s stream: %d events, digest %x", id, rank, stream, n, d)
				}
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	if !recorded {
		t.Errorf("%s: no events on %v", id, streams)
	}
}
