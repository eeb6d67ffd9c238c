package replobj_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	replobj "github.com/replobj/replobj"
	"github.com/replobj/replobj/internal/adets/pds"
	"github.com/replobj/replobj/internal/client"
	"github.com/replobj/replobj/internal/replica"
	"github.com/replobj/replobj/internal/vtime"
)

// counter is the canonical per-replica object state.
type counter struct{ v uint64 }

// Snapshot/Restore (Snapshotter): the value as 8 big-endian bytes, so that
// groups of counters checkpoint.
func (c *counter) Snapshot() ([]byte, error) { return u64(c.v), nil }

func (c *counter) Restore(b []byte) error {
	if len(b) != 8 {
		return fmt.Errorf("counter: image of %d bytes, want 8", len(b))
	}
	c.v = fromU64(b)
	return nil
}

func counterGroup(t testing.TB, c *replobj.Cluster, name string, n int, opts ...replobj.GroupOption) *replobj.Group {
	t.Helper()
	opts = append(opts, replobj.WithState(func() any { return &counter{} }))
	g, err := c.NewGroup(name, n, opts...)
	if err != nil {
		t.Fatal(err)
	}
	g.Register("add", func(inv *replobj.Invocation) ([]byte, error) {
		st := inv.State().(*counter)
		if err := inv.Lock("state"); err != nil {
			return nil, err
		}
		defer func() { _ = inv.Unlock("state") }()
		st.v += uint64(inv.Args()[0])
		return u64(st.v), nil
	})
	g.Register("get", func(inv *replobj.Invocation) ([]byte, error) {
		st := inv.State().(*counter)
		if err := inv.Lock("state"); err != nil {
			return nil, err
		}
		defer func() { _ = inv.Unlock("state") }()
		return u64(st.v), nil
	})
	g.Start()
	return g
}

func u64(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

func fromU64(b []byte) uint64 {
	if len(b) != 8 {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// run executes fn on a tracked goroutine and tears the cluster down inside
// the simulation.
func run(rt *vtime.VirtualRuntime, c *replobj.Cluster, fn func()) {
	vtime.Run(rt, "test-main", func() {
		fn()
		c.Close()
	})
	rt.Stop()
}

// schedulerKindsWithPool returns every kind with PDS pools sized to load.
func groupOptsFor(kind replobj.SchedulerKind, clients int) []replobj.GroupOption {
	opts := []replobj.GroupOption{replobj.WithScheduler(kind)}
	if kind == replobj.PDS || kind == replobj.PDS2 {
		opts = append(opts, replobj.WithPDSConfig(pds.Config{PoolSize: clients}))
	}
	return opts
}

// TestCounterAllSchedulers drives the full stack — client stub, total
// order, scheduler, adapter — for every strategy and checks both the
// result and cross-replica state consistency.
func TestCounterAllSchedulers(t *testing.T) {
	for _, kind := range replobj.Kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			rt := vtime.Virtual()
			c := replobj.NewCluster(rt)
			counterGroup(t, c, "cnt", 3, groupOptsFor(kind, 2)...)
			run(rt, c, func() {
				results := vtime.NewMailbox[error](rt, "results")
				for ci := 0; ci < 2; ci++ {
					name := fmt.Sprintf("c%d", ci)
					rt.Go("client/"+name, func() {
						cl := c.NewClient(name)
						var err error
						for i := 0; i < 5 && err == nil; i++ {
							_, err = cl.Invoke("cnt", "add", []byte{1})
						}
						results.Put(err)
					})
				}
				for i := 0; i < 2; i++ {
					if err, _ := results.Get(); err != nil {
						t.Fatalf("client error: %v", err)
					}
				}
				// Read back from every replica and compare.
				reader := c.NewClient("reader", replobj.WithReplyPolicy(replobj.All))
				replies, err := reader.InvokeAll("cnt", "get", nil)
				if err != nil {
					t.Fatalf("InvokeAll: %v", err)
				}
				if len(replies) != 3 {
					t.Fatalf("got %d replies, want 3", len(replies))
				}
				for node, rep := range replies {
					if rep.Err != "" {
						t.Errorf("%v: error %q", node, rep.Err)
					}
					if got := fromU64(rep.Result); got != 10 {
						t.Errorf("%v: counter = %d, want 10", node, got)
					}
				}
			})
		})
	}
}

// TestNestedInvocationAcrossGroups: group A's handler invokes group B.
func TestNestedInvocationAcrossGroups(t *testing.T) {
	for _, kind := range []replobj.SchedulerKind{replobj.SEQ, replobj.ADSAT, replobj.MAT, replobj.LSA, replobj.PDS} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			rt := vtime.Virtual()
			c := replobj.NewCluster(rt)
			counterGroup(t, c, "B", 3, groupOptsFor(kind, 1)...)
			a, err := c.NewGroup("A", 3, groupOptsFor(kind, 1)...)
			if err != nil {
				t.Fatal(err)
			}
			a.Register("forward", func(inv *replobj.Invocation) ([]byte, error) {
				return inv.Invoke("B", "add", inv.Args())
			})
			a.Start()
			run(rt, c, func() {
				cl := c.NewClient("c1")
				out, err := cl.Invoke("A", "forward", []byte{7})
				if err != nil {
					t.Fatalf("Invoke: %v", err)
				}
				if got := fromU64(out); got != 7 {
					t.Errorf("result = %d, want 7", got)
				}
				// B executed the nested call exactly once despite three A
				// replicas issuing it.
				reader := c.NewClient("reader")
				v, err := reader.Invoke("B", "get", nil)
				if err != nil {
					t.Fatal(err)
				}
				if got := fromU64(v); got != 7 {
					t.Errorf("B counter = %d, want 7 (at-most-once across replicas)", got)
				}
			})
		})
	}
}

// TestNestedCallLimitIsAnError: a nested call's id is its invocation's
// Seq*1000 + n, so the 1001st call of A.many would carry the id of the call
// B.m made to C for A.many's first: C would take it for a copy of that one
// and never answer. Invoke refuses it instead, with an error the client
// sees, and C has run each of the 1000 calls made before it once.
func TestNestedCallLimitIsAnError(t *testing.T) {
	rt := vtime.Virtual()
	c := replobj.NewCluster(rt)
	counterGroup(t, c, "C", 3)
	b, err := c.NewGroup("B", 3)
	if err != nil {
		t.Fatal(err)
	}
	b.Register("m", func(inv *replobj.Invocation) ([]byte, error) {
		return inv.Invoke("C", "add", []byte{1})
	})
	b.Start()
	a, err := c.NewGroup("A", 3)
	if err != nil {
		t.Fatal(err)
	}
	a.Register("many", func(inv *replobj.Invocation) ([]byte, error) {
		if _, err := inv.Invoke("B", "m", nil); err != nil {
			return nil, err
		}
		for i := 0; i < 1000; i++ {
			if _, err := inv.Invoke("C", "add", []byte{1}); err != nil {
				return nil, fmt.Errorf("call %d: %w", i+2, err)
			}
		}
		return nil, nil
	})
	a.Start()
	run(rt, c, func() {
		cl := c.NewClient("c1", replobj.WithInvocationTimeout(60*time.Second))
		_, err := cl.Invoke("A", "many", nil)
		var e *replica.Error
		if !errors.As(err, &e) || !strings.Contains(e.Msg, "call 1001: replica: nested call 1001") {
			t.Errorf("Invoke: %v, want the 1001st nested call refused", err)
		}
		v, err := c.NewClient("reader").Invoke("C", "get", nil)
		if err != nil {
			t.Errorf("C.get: %v", err)
		} else if got := fromU64(v); got != 1000 {
			t.Errorf("C ran %d adds, want 1000", got)
		}
	})
}

// TestCallbackChain: A.entry → B.bounce → A.cb under the same logical
// thread. Callback-capable schedulers complete; SEQ deadlocks (the paper's
// Section 2 motivation) and the client times out.
func TestCallbackChain(t *testing.T) {
	kinds := []replobj.SchedulerKind{replobj.SL, replobj.ADSAT, replobj.MAT, replobj.LSA}
	for _, kind := range kinds {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			rt := vtime.Virtual()
			c := replobj.NewCluster(rt)
			testCallbackChain(t, rt, c, kind, false)
		})
	}
	t.Run("SEQ-deadlocks", func(t *testing.T) {
		rt := vtime.Virtual()
		c := replobj.NewCluster(rt)
		testCallbackChain(t, rt, c, replobj.SEQ, true)
	})
}

func testCallbackChain(t *testing.T, rt *vtime.VirtualRuntime, c *replobj.Cluster, kind replobj.SchedulerKind, wantDeadlock bool) {
	t.Helper()
	a, err := c.NewGroup("A", 3, replobj.WithScheduler(kind))
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.NewGroup("B", 3, replobj.WithScheduler(kind))
	if err != nil {
		t.Fatal(err)
	}
	a.Register("entry", func(inv *replobj.Invocation) ([]byte, error) {
		return inv.Invoke("B", "bounce", nil)
	})
	a.Register("cb", func(inv *replobj.Invocation) ([]byte, error) {
		return []byte("from-callback"), nil
	})
	b.Register("bounce", func(inv *replobj.Invocation) ([]byte, error) {
		return inv.Invoke("A", "cb", nil)
	})
	a.Start()
	b.Start()
	run(rt, c, func() {
		cl := c.NewClient("c1", replobj.WithInvocationTimeout(2*time.Second))
		out, err := cl.Invoke("A", "entry", nil)
		if wantDeadlock {
			if !errors.Is(err, client.ErrTimeout) {
				t.Errorf("err = %v, want timeout (callback deadlock under SEQ)", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("Invoke: %v", err)
		}
		if string(out) != "from-callback" {
			t.Errorf("result = %q", out)
		}
	})
}

// TestReentrantLockThroughCallback: the callback re-enters a mutex held by
// its originating request — the SA+L logical-thread property.
func TestReentrantLockThroughCallback(t *testing.T) {
	for _, kind := range []replobj.SchedulerKind{replobj.ADSAT, replobj.MAT, replobj.LSA} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			rt := vtime.Virtual()
			c := replobj.NewCluster(rt)
			a, _ := c.NewGroup("A", 3, replobj.WithScheduler(kind))
			b, _ := c.NewGroup("B", 3, replobj.WithScheduler(kind))
			a.Register("entry", func(inv *replobj.Invocation) ([]byte, error) {
				if err := inv.Lock("m"); err != nil {
					return nil, err
				}
				defer func() { _ = inv.Unlock("m") }()
				return inv.Invoke("B", "bounce", nil)
			})
			a.Register("cb", func(inv *replobj.Invocation) ([]byte, error) {
				// Same logical thread ⇒ reentrant acquisition must succeed
				// even though "entry" still holds m.
				if err := inv.Lock("m"); err != nil {
					return nil, err
				}
				defer func() { _ = inv.Unlock("m") }()
				return []byte("reentered"), nil
			})
			b.Register("bounce", func(inv *replobj.Invocation) ([]byte, error) {
				return inv.Invoke("A", "cb", nil)
			})
			a.Start()
			b.Start()
			run(rt, c, func() {
				cl := c.NewClient("c1")
				out, err := cl.Invoke("A", "entry", nil)
				if err != nil {
					t.Fatalf("Invoke: %v", err)
				}
				if string(out) != "reentered" {
					t.Errorf("result = %q", out)
				}
			})
		})
	}
}

// TestAtMostOnceUnderRetransmission: aggressive client retransmission with
// high latency must not double-execute.
func TestAtMostOnceUnderRetransmission(t *testing.T) {
	rt := vtime.Virtual()
	c := replobj.NewCluster(rt, replobj.WithLatency(5*time.Millisecond))
	counterGroup(t, c, "cnt", 3, replobj.WithScheduler(replobj.ADSAT))
	run(rt, c, func() {
		cl := c.NewClient("c1", replobj.WithRetransmit(time.Millisecond))
		for i := 0; i < 5; i++ {
			if _, err := cl.Invoke("cnt", "add", []byte{1}); err != nil {
				t.Fatal(err)
			}
		}
		reader := c.NewClient("r")
		v, err := reader.Invoke("cnt", "get", nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := fromU64(v); got != 5 {
			t.Errorf("counter = %d, want 5 (duplicates executed?)", got)
		}
	})
}

// TestBoundedBufferEndToEnd: condition variables through the full stack.
func TestBoundedBufferEndToEnd(t *testing.T) {
	for _, kind := range []replobj.SchedulerKind{replobj.ADSAT, replobj.MAT, replobj.LSA, replobj.PDS} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			rt := vtime.Virtual()
			c := replobj.NewCluster(rt)
			g, err := c.NewGroup("buf", 3, append(groupOptsFor(kind, 4),
				replobj.WithState(func() any { return &buffer{cap: 2} }))...)
			if err != nil {
				t.Fatal(err)
			}
			registerBuffer(g)
			g.Start()
			run(rt, c, func() {
				const items = 6
				done := vtime.NewMailbox[error](rt, "done")
				rt.Go("producer", func() {
					cl := c.NewClient("prod")
					var err error
					for i := 0; i < items && err == nil; i++ {
						_, err = cl.Invoke("buf", "produce", []byte{byte(i + 1)})
					}
					done.Put(err)
				})
				rt.Go("consumer", func() {
					cl := c.NewClient("cons")
					var err error
					sum := 0
					for i := 0; i < items && err == nil; i++ {
						var out []byte
						out, err = cl.Invoke("buf", "consume", nil)
						if err == nil {
							sum += int(out[0])
						}
					}
					if err == nil && sum != 21 {
						err = fmt.Errorf("consumed sum %d, want 21", sum)
					}
					done.Put(err)
				})
				for i := 0; i < 2; i++ {
					if err, _ := done.Get(); err != nil {
						t.Fatalf("%v", err)
					}
				}
			})
		})
	}
}

type buffer struct {
	cap   int
	items []byte
}

func registerBuffer(g *replobj.Group) {
	g.Register("produce", func(inv *replobj.Invocation) ([]byte, error) {
		st := inv.State().(*buffer)
		if err := inv.Lock("buf"); err != nil {
			return nil, err
		}
		defer func() { _ = inv.Unlock("buf") }()
		for len(st.items) >= st.cap {
			if _, err := inv.Wait("buf", "notfull", 0); err != nil {
				return nil, err
			}
		}
		st.items = append(st.items, inv.Args()[0])
		if err := inv.Notify("buf", "notempty"); err != nil {
			return nil, err
		}
		return nil, nil
	})
	g.Register("consume", func(inv *replobj.Invocation) ([]byte, error) {
		st := inv.State().(*buffer)
		if err := inv.Lock("buf"); err != nil {
			return nil, err
		}
		defer func() { _ = inv.Unlock("buf") }()
		for len(st.items) == 0 {
			if _, err := inv.Wait("buf", "notempty", 0); err != nil {
				return nil, err
			}
		}
		v := st.items[0]
		st.items = st.items[1:]
		if err := inv.Notify("buf", "notfull"); err != nil {
			return nil, err
		}
		return []byte{v}, nil
	})
}

// TestLSAFailoverEndToEnd: crash the LSA leader (also the sequencer);
// after the in-stream view change the group keeps serving and survivors
// agree on the state.
func TestLSAFailoverEndToEnd(t *testing.T) {
	rt := vtime.Virtual()
	c := replobj.NewCluster(rt)
	g := counterGroup(t, c, "cnt", 3,
		replobj.WithScheduler(replobj.LSA),
		replobj.WithFailureDetection(true))
	run(rt, c, func() {
		cl := c.NewClient("c1", replobj.WithInvocationTimeout(10*time.Second))
		for i := 0; i < 3; i++ {
			if _, err := cl.Invoke("cnt", "add", []byte{1}); err != nil {
				t.Fatalf("pre-crash invoke %d: %v", i, err)
			}
		}
		if err := c.Crash(g.Members()[0]); err != nil {
			t.Fatal(err)
		}
		rt.Sleep(time.Second) // let suspicion + view change complete
		for i := 0; i < 3; i++ {
			if _, err := cl.Invoke("cnt", "add", []byte{1}); err != nil {
				t.Fatalf("post-crash invoke %d: %v", i, err)
			}
		}
		v, err := cl.Invoke("cnt", "get", nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := fromU64(v); got != 6 {
			t.Errorf("counter = %d, want 6", got)
		}
	})
}

// TestTable1MatchesPaper asserts the implemented capability metadata equals
// the paper's Table 1.
func TestTable1MatchesPaper(t *testing.T) {
	got := replobj.Table1()
	for _, want := range []string{
		"SEQ", "implicit", "Eternal", "interception", "SAT", "Locks",
		"ADETS-SAT", "Java", "transformation", "SA+L",
		"ADETS-MAT", "MA", "LSA", "Locks/Monitor", "manual",
		"PDS", "MA (restr.)", "NI+CB",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("Table1 output missing %q:\n%s", want, got)
		}
	}
}

// TestDeterministicStateAcrossReplicas is the headline property: a mixed
// concurrent workload leaves identical state on every replica, for every
// scheduler.
func TestDeterministicStateAcrossReplicas(t *testing.T) {
	for _, kind := range replobj.Kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			rt := vtime.Virtual()
			c := replobj.NewCluster(rt)
			g, err := c.NewGroup("log", 3, append(groupOptsFor(kind, 3),
				replobj.WithState(func() any { return &applog{} }))...)
			if err != nil {
				t.Fatal(err)
			}
			g.Register("append", func(inv *replobj.Invocation) ([]byte, error) {
				st := inv.State().(*applog)
				inv.Compute(time.Duration(inv.Args()[1]) * time.Millisecond)
				if err := inv.Lock("log"); err != nil {
					return nil, err
				}
				defer func() { _ = inv.Unlock("log") }()
				st.entries = append(st.entries, inv.Args()[0])
				return nil, nil
			})
			g.Register("dump", func(inv *replobj.Invocation) ([]byte, error) {
				st := inv.State().(*applog)
				if err := inv.Lock("log"); err != nil {
					return nil, err
				}
				defer func() { _ = inv.Unlock("log") }()
				return append([]byte(nil), st.entries...), nil
			})
			g.Start()
			run(rt, c, func() {
				done := vtime.NewMailbox[error](rt, "done")
				for ci := 0; ci < 3; ci++ {
					ci := ci
					rt.Go("client", func() {
						cl := c.NewClient(fmt.Sprintf("c%d", ci))
						var err error
						for i := 0; i < 4 && err == nil; i++ {
							_, err = cl.Invoke("log", "append",
								[]byte{byte(ci*10 + i), byte((ci + i) % 3)})
						}
						done.Put(err)
					})
				}
				for i := 0; i < 3; i++ {
					if err, _ := done.Get(); err != nil {
						t.Fatal(err)
					}
				}
				reader := c.NewClient("reader")
				replies, err := reader.InvokeAll("log", "dump", nil)
				if err != nil {
					t.Fatal(err)
				}
				var ref []byte
				var refNode replobj.NodeID
				for _, node := range g.Members() {
					rep := replies[node]
					if rep.Err != "" {
						t.Fatalf("%v: %s", node, rep.Err)
					}
					if ref == nil {
						ref, refNode = rep.Result, node
						continue
					}
					if !reflect.DeepEqual(ref, rep.Result) {
						t.Errorf("state divergence:\n  %v: %v\n  %v: %v",
							refNode, ref, node, rep.Result)
					}
				}
				if len(ref) != 12 {
					t.Errorf("log has %d entries, want 12", len(ref))
				}
			})
		})
	}
}

type applog struct{ entries []byte }

// TestPDSCallbackByNestedStrategy: under nested strategy A (the paper's
// evaluation default, "no scheduler support") the thread blocked in the
// nested invocation counts as running, so no round can start; a callback
// that needs a mutex therefore never gets its grant and the A→B→A chain
// deadlocks — consistent with PDS's "Deadl.-Free: NO" row in Table 1.
// (A lock-free callback would still complete: the idle worker holding the
// queue mutex picks it up without a round.) Strategy B treats the nested
// thread as suspended, rounds continue, and the same callback completes.
func TestPDSCallbackByNestedStrategy(t *testing.T) {
	run := func(ns pds.NestedStrategy) error {
		rt := vtime.Virtual()
		defer rt.Stop()
		c := replobj.NewCluster(rt)
		mk := func(name string) *replobj.Group {
			g, err := c.NewGroup(name, 3,
				replobj.WithScheduler(replobj.PDS),
				replobj.WithPDSConfig(pds.Config{PoolSize: 3, Nested: ns}))
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
		a, b := mk("A"), mk("B")
		a.Register("entry", func(inv *replobj.Invocation) ([]byte, error) {
			return inv.Invoke("B", "bounce", nil)
		})
		a.Register("cb", func(inv *replobj.Invocation) ([]byte, error) {
			if err := inv.Lock("aux"); err != nil {
				return nil, err
			}
			defer func() { _ = inv.Unlock("aux") }()
			return []byte("ok"), nil
		})
		b.Register("bounce", func(inv *replobj.Invocation) ([]byte, error) {
			return inv.Invoke("A", "cb", nil)
		})
		a.Start()
		b.Start()
		var err error
		vtime.Run(rt, "main", func() {
			defer c.Close()
			cl := c.NewClient("c1", replobj.WithInvocationTimeout(2*time.Second))
			_, err = cl.Invoke("A", "entry", nil)
		})
		return err
	}
	if err := run(pds.NestedBlockRound); !errors.Is(err, client.ErrTimeout) {
		t.Errorf("strategy A callback: err = %v, want timeout (deadlock)", err)
	}
	if err := run(pds.NestedSuspend); err != nil {
		t.Errorf("strategy B callback: %v, want success", err)
	}
}

// Drivers create their clients from concurrent tracked goroutines; every one
// of them must be registered, or Cluster.Close leaves its receive loop
// parked and the virtual kernel reports a deadlock (run under -race).
func TestClusterNewClientConcurrent(t *testing.T) {
	const n = 16
	rt := vtime.Virtual()
	c := replobj.NewCluster(rt)
	counterGroup(t, c, "cnt", 3, replobj.WithScheduler(replobj.SEQ))
	run(rt, c, func() {
		done := vtime.NewMailbox[error](rt, "done")
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("c%d", i)
			rt.Go("client/"+name, func() {
				_, err := c.NewClient(name).Invoke("cnt", "add", []byte{1})
				done.Put(err)
			})
		}
		for i := 0; i < n; i++ {
			if err, _ := done.Get(); err != nil {
				t.Errorf("invoke: %v", err)
			}
		}
		v, err := c.NewClient("reader").Invoke("cnt", "get", nil)
		if err != nil || fromU64(v) != n {
			t.Errorf("get = %d, %v; want %d", fromU64(v), err, n)
		}
	})
}
