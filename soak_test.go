package replobj_test

// Seeded randomized soak tests across the full stack: mixed workloads,
// message loss, and crash injection, always checking the headline property
// — identical state on every replica.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	replobj "github.com/replobj/replobj"
	"github.com/replobj/replobj/internal/adets/pds"
	"github.com/replobj/replobj/internal/vtime"
)

// soakState: several independent ledgers, each guarded by its own mutex.
type soakState struct {
	ledgers [4][]byte
}

// Snapshot/Restore make the soak state checkpointable: a group that
// checkpoints refuses a state without them.
func (s *soakState) Snapshot() ([]byte, error) {
	var out []byte
	for i := 0; i < 4; i++ {
		out = append(out, byte(len(s.ledgers[i])))
		out = append(out, s.ledgers[i]...)
	}
	return out, nil
}

func (s *soakState) Restore(b []byte) error {
	for i := 0; i < 4; i++ {
		n := int(b[0])
		s.ledgers[i] = append([]byte(nil), b[1:1+n]...)
		b = b[1+n:]
	}
	return nil
}

var _ replobj.Snapshotter = (*soakState)(nil)

func registerSoak(g *replobj.Group) {
	g.Register("op", func(inv *replobj.Invocation) ([]byte, error) {
		args := inv.Args() // [ledger, value, preMs, inMs]
		m := replobj.MutexID(fmt.Sprintf("ledger%d", args[0]))
		inv.Compute(time.Duration(args[2]) * time.Millisecond)
		if err := inv.Lock(m); err != nil {
			return nil, err
		}
		defer func() { _ = inv.Unlock(m) }()
		inv.Compute(time.Duration(args[3]) * time.Millisecond)
		st := inv.State().(*soakState)
		st.ledgers[args[0]] = append(st.ledgers[args[0]], args[1])
		return nil, nil
	})
	g.Register("dump", func(inv *replobj.Invocation) ([]byte, error) {
		st := inv.State().(*soakState)
		var out []byte
		for i := 0; i < 4; i++ {
			m := replobj.MutexID(fmt.Sprintf("ledger%d", i))
			if err := inv.Lock(m); err != nil {
				return nil, err
			}
			out = append(out, byte(len(st.ledgers[i])))
			out = append(out, st.ledgers[i]...)
			if err := inv.Unlock(m); err != nil {
				return nil, err
			}
		}
		return out, nil
	})
}

func runSoak(t *testing.T, kind replobj.SchedulerKind, seed int64, lossy bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rt := vtime.Virtual()
	defer rt.Stop()
	c := replobj.NewCluster(rt)
	opts := []replobj.GroupOption{
		replobj.WithScheduler(kind),
		replobj.WithState(func() any { return &soakState{} }),
	}
	const clients = 4
	if kind == replobj.PDS || kind == replobj.PDS2 {
		opts = append(opts, replobj.WithPDSConfig(pds.Config{PoolSize: clients}))
	}
	g, err := c.NewGroup("soak", 3, opts...)
	if err != nil {
		t.Fatal(err)
	}
	registerSoak(g)
	g.Start()

	// Pre-generate each client's deterministic op sequence.
	type op struct{ ledger, value, pre, in byte }
	plans := make([][]op, clients)
	for ci := range plans {
		for k := 0; k < 6; k++ {
			plans[ci] = append(plans[ci], op{
				ledger: byte(rng.Intn(4)),
				value:  byte(rng.Intn(256)),
				pre:    byte(rng.Intn(4)),
				in:     byte(rng.Intn(3)),
			})
		}
	}
	if lossy {
		// Drop ~10% of replica-to-replica traffic, deterministically seeded.
		lossRng := rand.New(rand.NewSource(seed ^ 0x5eed))
		members := g.Members()
		isReplica := func(n replobj.NodeID) bool {
			for _, m := range members {
				if m == n {
					return true
				}
			}
			return false
		}
		if err := c.SetDropRule(func(from, to replobj.NodeID) bool {
			return isReplica(from) && isReplica(to) && lossRng.Intn(10) == 0
		}); err != nil {
			t.Fatal(err)
		}
	}

	vtime.Run(rt, "soak-main", func() {
		defer c.Close()
		done := vtime.NewMailbox[error](rt, "done")
		for ci := 0; ci < clients; ci++ {
			ci := ci
			rt.Go("soak-client", func() {
				cl := c.NewClient(fmt.Sprintf("c%d", ci),
					replobj.WithInvocationTimeout(time.Minute),
					replobj.WithRetransmit(100*time.Millisecond))
				var err error
				for _, o := range plans[ci] {
					if _, err = cl.Invoke("soak", "op", []byte{o.ledger, o.value, o.pre, o.in}); err != nil {
						break
					}
				}
				done.Put(err)
			})
		}
		for i := 0; i < clients; i++ {
			if err, _ := done.Get(); err != nil {
				t.Errorf("client: %v", err)
			}
		}
		reader := c.NewClient("reader",
			replobj.WithInvocationTimeout(time.Minute),
			replobj.WithRetransmit(100*time.Millisecond))
		replies, err := reader.InvokeAll("soak", "dump", nil)
		if err != nil {
			t.Fatal(err)
		}
		var ref []byte
		for _, node := range g.Members() {
			rep := replies[node]
			if rep.Err != "" {
				t.Fatalf("%v: %s", node, rep.Err)
			}
			if ref == nil {
				ref = rep.Result
				continue
			}
			if !reflect.DeepEqual(ref, rep.Result) {
				t.Errorf("seed %d: replica %v diverged:\n  ref: %v\n  got: %v", seed, node, ref, rep.Result)
			}
		}
		total := 0
		for _, p := range plans {
			total += len(p)
		}
		count := 0
		for i, off := 0, 0; i < 4; i++ {
			count += int(ref[off])
			off += int(ref[off]) + 1
		}
		if count != total {
			t.Errorf("seed %d: %d ops recorded, want %d", seed, count, total)
		}
	})
}

func TestSoakAllSchedulers(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	for _, kind := range replobj.Kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				runSoak(t, kind, seed, false)
			}
		})
	}
}

func TestSoakLossyNetwork(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	for _, kind := range []replobj.SchedulerKind{replobj.ADSAT, replobj.MAT, replobj.LSA} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			runSoak(t, kind, 7, true)
		})
	}
}

// TestSoakCheckpointTruncation: a long duplicate-free workload with
// checkpointing enabled must keep every replica's retained ordered log and
// reply cache bounded while the replicas stay in agreement. Unlike the
// other soak lanes this one runs under -short too, just with the duration
// gated down — the short lane still crosses several checkpoint boundaries.
func TestSoakCheckpointTruncation(t *testing.T) {
	opsPerClient := 40
	if testing.Short() {
		opsPerClient = 12
	}
	const (
		clients = 3
		every   = 8
	)
	for _, kind := range replobj.Kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			rt := vtime.Virtual()
			defer rt.Stop()
			c := replobj.NewCluster(rt)
			opts := []replobj.GroupOption{
				replobj.WithScheduler(kind),
				replobj.WithState(func() any { return &soakState{} }),
				replobj.WithCheckpointEvery(every),
			}
			if kind == replobj.PDS || kind == replobj.PDS2 {
				opts = append(opts, replobj.WithPDSConfig(pds.Config{PoolSize: clients}))
			}
			g, err := c.NewGroup("soak", 3, opts...)
			if err != nil {
				t.Fatal(err)
			}
			registerSoak(g)
			g.Start()
			vtime.Run(rt, "soak-main", func() {
				defer c.Close()
				done := vtime.NewMailbox[error](rt, "done")
				for ci := 0; ci < clients; ci++ {
					ci := ci
					rt.Go("soak-client", func() {
						cl := c.NewClient(fmt.Sprintf("ck%d", ci),
							replobj.WithInvocationTimeout(time.Minute),
							replobj.WithRetransmit(100*time.Millisecond))
						var err error
						for k := 0; k < opsPerClient; k++ {
							if _, err = cl.Invoke("soak", "op",
								[]byte{byte((ci + k) % 4), byte(k), 1, 1}); err != nil {
								break
							}
						}
						done.Put(err)
					})
				}
				for i := 0; i < clients; i++ {
					if err, _ := done.Get(); err != nil {
						t.Errorf("client: %v", err)
					}
				}
				rt.Sleep(200 * time.Millisecond)

				// Bounded memory at the end of the run: the retained ordered
				// log stays within a small multiple of the checkpoint interval
				// and the replies held within one per client, no matter how
				// long the run was.
				for rank := 0; rank < 3; rank++ {
					r := g.Replica(rank)
					if n := r.Member().LogLen(); n > 2*every {
						t.Errorf("rank %d retains %d ordered messages, want <= %d", rank, n, 2*every)
					}
					if n := r.CacheSize(); n > clients {
						t.Errorf("rank %d holds %d replies, want <= %d (one per client)", rank, n, clients)
					}
				}

				reader := c.NewClient("reader",
					replobj.WithInvocationTimeout(time.Minute),
					replobj.WithRetransmit(100*time.Millisecond))
				replies, err := reader.InvokeAll("soak", "dump", nil)
				if err != nil {
					t.Fatal(err)
				}
				var ref []byte
				for _, node := range g.Members() {
					rep := replies[node]
					if rep.Err != "" {
						t.Fatalf("%v: %s", node, rep.Err)
					}
					if ref == nil {
						ref = rep.Result
						continue
					}
					if !reflect.DeepEqual(ref, rep.Result) {
						t.Errorf("replica %v diverged:\n  ref: %v\n  got: %v", node, ref, rep.Result)
					}
				}
				count := 0
				for i, off := 0, 0; i < 4; i++ {
					count += int(ref[off])
					off += int(ref[off]) + 1
				}
				if count != clients*opsPerClient {
					t.Errorf("%d ops recorded, want %d", count, clients*opsPerClient)
				}
			})
		})
	}
}

// TestSequencerCrashMidWorkload: with failure detection on, crash the
// gcs sequencer (rank 0) mid-workload; clients with retransmission must
// complete and survivors must agree. (For LSA this doubles as the leader
// fail-over; for SAT it exercises the pure gcs fail-over path.)
func TestSequencerCrashMidWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	for _, kind := range []replobj.SchedulerKind{replobj.ADSAT, replobj.MAT, replobj.LSA} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			rt := vtime.Virtual()
			defer rt.Stop()
			c := replobj.NewCluster(rt)
			g, err := c.NewGroup("soak", 3,
				replobj.WithScheduler(kind),
				replobj.WithFailureDetection(true),
				replobj.WithState(func() any { return &soakState{} }))
			if err != nil {
				t.Fatal(err)
			}
			registerSoak(g)
			g.Start()
			vtime.Run(rt, "main", func() {
				defer c.Close()
				cl := c.NewClient("c1",
					replobj.WithInvocationTimeout(30*time.Second),
					replobj.WithRetransmit(200*time.Millisecond))
				for i := 0; i < 4; i++ {
					if _, err := cl.Invoke("soak", "op", []byte{0, byte(i), 1, 1}); err != nil {
						t.Fatalf("pre-crash op %d: %v", i, err)
					}
				}
				if err := c.Crash(g.Members()[0]); err != nil {
					t.Fatal(err)
				}
				for i := 4; i < 8; i++ {
					if _, err := cl.Invoke("soak", "op", []byte{0, byte(i), 1, 1}); err != nil {
						t.Fatalf("post-crash op %d: %v", i, err)
					}
				}
				out, err := cl.Invoke("soak", "dump", nil)
				if err != nil {
					t.Fatal(err)
				}
				if out[0] != 8 {
					t.Errorf("ledger0 has %d entries, want 8", out[0])
				}
			})
		})
	}
}
