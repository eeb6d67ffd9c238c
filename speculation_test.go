package replobj_test

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	replobj "github.com/replobj/replobj"
	"github.com/replobj/replobj/internal/gcs"
	"github.com/replobj/replobj/internal/replica"
	"github.com/replobj/replobj/internal/transport"
	"github.com/replobj/replobj/internal/vtime"
	"github.com/replobj/replobj/internal/wire"
)

// kcounter is a keyed counter with per-key conflict classes: operations on
// distinct keys commute (conflict ratio 0), operations on a shared key
// conflict — the workload knob for speculation tests.
type kcounter struct{ Slots map[string]uint64 }

func newKCounter() any { return &kcounter{Slots: make(map[string]uint64)} }

// Snapshot/Restore (Snapshotter): kvState's encoding, slots in key order,
// for fork images and checkpoints.
func (k *kcounter) Snapshot() ([]byte, error) { return (&kvState{m: k.Slots}).Snapshot() }

func (k *kcounter) Restore(b []byte) error {
	var st kvState
	if err := st.Restore(b); err != nil {
		return err
	}
	k.Slots = st.m
	return nil
}

// ConflictClasses implements replobj.ConflictClasser: the key byte is the
// class — a pure function of the arguments.
func (k *kcounter) ConflictClasses(method string, args []byte) []string {
	if len(args) > 0 {
		return []string{"key/" + string(args[:1])}
	}
	return nil
}

// kcounterGroup registers add(key, delta) and get(key) with per-key locks.
func kcounterGroup(t *testing.T, c *replobj.Cluster, name string, n int, opts ...replobj.GroupOption) *replobj.Group {
	t.Helper()
	opts = append(opts, replobj.WithState(newKCounter))
	g, err := c.NewGroup(name, n, opts...)
	if err != nil {
		t.Fatal(err)
	}
	g.Register("add", func(inv *replobj.Invocation) ([]byte, error) {
		key := string(inv.Args()[:1])
		if err := inv.Lock(replobj.MutexID("key/" + key)); err != nil {
			return nil, err
		}
		defer func() { _ = inv.Unlock(replobj.MutexID("key/" + key)) }()
		inv.Compute(200 * time.Microsecond)
		st := inv.State().(*kcounter)
		if st.Slots == nil {
			st.Slots = make(map[string]uint64)
		}
		st.Slots[key] += uint64(inv.Args()[1])
		return u64(st.Slots[key]), nil
	})
	g.Register("get", func(inv *replobj.Invocation) ([]byte, error) {
		key := string(inv.Args()[:1])
		if err := inv.Lock(replobj.MutexID("key/" + key)); err != nil {
			return nil, err
		}
		defer func() { _ = inv.Unlock(replobj.MutexID("key/" + key)) }()
		st := inv.State().(*kcounter)
		return u64(st.Slots[key]), nil
	})
	g.Start()
	return g
}

// TestSpeculationChaosDigestsAndAtMostOnce drives a speculative group for
// SEQ and CC with a mixed workload — each client alternating between
// a private key (conflict ratio 0: speculations can hit) and a shared hot
// key all clients contend on (seeded mis-speculation: forks go stale and
// must be discarded). The oracles are exact effect counts (no speculation
// may be lost or applied twice) and cross-replica schedule-digest equality
// (speculation must not perturb the deterministic ordered run). Only the
// followers that get a copy of their own speculate: the sequencer orders
// each request as its copy arrives, and a Majority client sends its copies
// to the sequencer and follower 1 alone.
func TestSpeculationChaosDigestsAndAtMostOnce(t *testing.T) {
	for _, kind := range []replobj.SchedulerKind{replobj.SEQ, replobj.CC} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			const (
				replicas = 3
				clients  = 3
				rounds   = 6
			)
			rt := vtime.Virtual()
			reg := replobj.NewMetricsRegistry()
			c := replobj.NewCluster(rt, replobj.WithMetrics(reg))
			opts := append(groupOptsFor(kind, clients),
				replobj.WithSpeculation(),
				replobj.WithSchedTrace(0),
				replobj.WithCheckpointEvery(16))
			g := kcounterGroup(t, c, "spec", replicas, opts...)
			perNode := func(name string) (n [replicas]uint64) {
				for i := range n {
					n[i] = reg.Counter(fmt.Sprintf(`replobj_replica_spec_%s_total{node="spec/%d"}`, name, i)).Value()
				}
				return n
			}
			run(rt, c, func() {
				// A client's first request goes to every member, so every
				// follower may speculate on it; from then on a Majority
				// client's copies go to the sequencer and follower 1 alone.
				cls := make([]*replobj.Client, clients)
				for ci := range cls {
					cls[ci] = c.NewClient(fmt.Sprintf("c%d", ci))
					if _, err := cls[ci].Invoke("spec", "get", []byte{'H'}); err != nil {
						t.Fatalf("introduction: %v", err)
					}
				}
				introduced, caughtUp := perNode("attempts"), perNode("catchups")
				results := vtime.NewMailbox[error](rt, "results")
				for ci := 0; ci < clients; ci++ {
					ci := ci
					name := fmt.Sprintf("c%d", ci)
					priv := []byte{byte('a' + ci), 1}
					hot := []byte{'H', 1}
					rt.Go("client/"+name, func() {
						cl := cls[ci]
						var err error
						for i := 0; i < rounds && err == nil; i++ {
							if _, err = cl.Invoke("spec", "add", priv); err == nil {
								_, err = cl.Invoke("spec", "add", hot)
							}
							rt.Sleep(2 * time.Millisecond) // think time: lets images refresh
						}
						results.Put(err)
					})
				}
				for i := 0; i < clients; i++ {
					if err, _ := results.Get(); err != nil {
						t.Fatalf("client error: %v", err)
					}
				}
				attempts, catchUps := perNode("attempts"), perNode("catchups")
				for i := range attempts {
					switch n := attempts[i] - introduced[i]; {
					case i == 0 && attempts[i] != 0:
						t.Errorf("the sequencer speculated %d times on requests it ordered as they arrived", attempts[i])
					case i == 1 && n == 0:
						t.Error("follower 1, in every copy set, never speculated")
					case i == 2 && n != 0:
						t.Errorf("follower 2, in no copy set, speculated %d times", n)
					}
				}
				// Follower 2 holds forks from the introductions; keeping them
				// current would re-run every request for no reply.
				if n := catchUps[2] - caughtUp[2]; n != 0 {
					t.Errorf("follower 2, in no copy set, caught its forks up %d times", n)
				}
				// Exact effect counts on every replica: nothing lost, nothing
				// doubled — mis-speculated forks left no trace.
				reader := c.NewClient("reader", replobj.WithReplyPolicy(replobj.All))
				check := func(key byte, want uint64) {
					replies, err := reader.InvokeAll("spec", "get", []byte{key})
					if err != nil {
						t.Fatalf("InvokeAll(get %q): %v", key, err)
					}
					for node, rep := range replies {
						if rep.Err != "" {
							t.Errorf("%v: get %q: %s", node, key, rep.Err)
						} else if got := fromU64(rep.Result); got != want {
							t.Errorf("%v: key %q = %d, want %d", node, key, got, want)
						}
					}
				}
				for ci := 0; ci < clients; ci++ {
					check(byte('a'+ci), rounds)
				}
				check('H', clients*rounds)
				// Cross-replica digest equality: the ordered run is untouched.
				for i := 1; i < replicas; i++ {
					if d := replobj.FirstTraceDivergence(g.Trace(0), g.Trace(i)); d != nil {
						t.Errorf("trace divergence rank0 vs rank%d: %+v", i, d)
					}
				}
			})
		})
	}
}

// TestSpeculationDigestsMatchBaseline pins the central invariant from the
// issue: a speculative run's committed schedule-trace digests are
// bit-identical to a non-speculative run of the same workload. One client,
// sequential invokes, so the total order is the same in both runs.
func TestSpeculationDigestsMatchBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("digest identity needs the full workload")
	}
	for _, kind := range []replobj.SchedulerKind{replobj.SEQ, replobj.CC} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			const invokes = 12
			traces := make(map[bool]*replobj.ScheduleTrace)
			hits := make(map[bool]uint64)
			for _, speculative := range []bool{false, true} {
				rt := vtime.Virtual()
				reg := replobj.NewMetricsRegistry()
				c := replobj.NewCluster(rt, replobj.WithMetrics(reg))
				opts := append(groupOptsFor(kind, 1),
					replobj.WithSchedTrace(0),
					replobj.WithCheckpointEvery(8))
				if speculative {
					opts = append(opts, replobj.WithSpeculation())
				}
				g := kcounterGroup(t, c, "cnt", 3, opts...)
				run(rt, c, func() {
					cl := c.NewClient("c0")
					for i := 0; i < invokes; i++ {
						if _, err := cl.Invoke("cnt", "add", []byte{'a', 1}); err != nil {
							t.Fatalf("Invoke: %v", err)
						}
						rt.Sleep(2 * time.Millisecond)
					}
					rep, err := cl.Invoke("cnt", "get", []byte{'a'})
					if err != nil || fromU64(rep) != invokes {
						t.Fatalf("get = %d (%v), want %d", fromU64(rep), err, invokes)
					}
					for i := 1; i < 3; i++ {
						if d := replobj.FirstTraceDivergence(g.Trace(0), g.Trace(i)); d != nil {
							t.Errorf("spec=%v: divergence rank0 vs rank%d: %+v", speculative, i, d)
						}
					}
				})
				traces[speculative] = g.Trace(0)
				for i := 0; i < 3; i++ {
					hits[speculative] += reg.Counter(fmt.Sprintf(`replobj_replica_spec_hits_total{node="cnt/%d"}`, i)).Value()
				}
			}
			// Cross-run comparison: every shared stream must agree position
			// for position — speculation changed when replies left, not what
			// the replicas committed.
			if d := replobj.FirstTraceDivergence(traces[false], traces[true]); d != nil {
				t.Errorf("speculative run diverges from baseline: %+v", d)
			}
			if hits[true] == 0 {
				t.Error("conflict-free sequential workload produced no speculation hits")
			}
			if hits[false] != 0 {
				t.Errorf("baseline run recorded %d speculation hits", hits[false])
			}
		})
	}
}

// specCounter sums one per-replica speculation counter over a group.
func specCounter(reg *replobj.MetricsRegistry, group, name string, replicas int) uint64 {
	var n uint64
	for i := 0; i < replicas; i++ {
		n += reg.Counter(fmt.Sprintf(`replobj_replica_spec_%s_total{node="%s/%d"}`, name, group, i)).Value()
	}
	return n
}

// TestSpeculationForksFollowTheOrder pins what long-lived forks add to the
// contract: a fork carries confirmed speculative writes from one request to
// the next, so a few hot keys hammered by several clients — every request
// conflicting with its predecessors, forks going stale, dirty and being
// caught up all the time — must still leave exact effect counts, equal digests on every replica and not one reply that
// differs from the ordered one, while the state is snapshotted and restored
// for a fraction of the speculations only. A second, single-client pass over
// the same keys (same total order with and without speculation) checks that
// the committed digests are those of a non-speculative run.
func TestSpeculationForksFollowTheOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("needs the full workload")
	}
	keys := []byte{'x', 'y', 'z'}
	for _, kind := range []replobj.SchedulerKind{replobj.SEQ, replobj.CC} {
		kind := kind
		t.Run(string(kind)+"/chaos", func(t *testing.T) {
			const (
				replicas = 3
				clients  = 3
				rounds   = 40
			)
			// Every third round puts all three clients on one key.
			keyOf := func(ci, i int) byte { return keys[(i*i+ci*i)%len(keys)] }
			rt := vtime.Virtual()
			reg := replobj.NewMetricsRegistry()
			c := replobj.NewCluster(rt, replobj.WithMetrics(reg))
			opts := append(groupOptsFor(kind, clients),
				replobj.WithSpeculation(),
				replobj.WithSchedTrace(0),
				replobj.WithCheckpointEvery(16))
			g := kcounterGroup(t, c, "hot", replicas, opts...)
			want := make(map[byte]uint64)
			run(rt, c, func() {
				results := vtime.NewMailbox[error](rt, "results")
				for ci := 0; ci < clients; ci++ {
					ci := ci
					for i := 0; i < rounds; i++ {
						want[keyOf(ci, i)]++
					}
					rt.Go(fmt.Sprintf("client/c%d", ci), func() {
						cl := c.NewClient(fmt.Sprintf("c%d", ci))
						var err error
						for i := 0; i < rounds && err == nil; i++ {
							_, err = cl.Invoke("hot", "add", []byte{keyOf(ci, i), 1})
						}
						results.Put(err)
					})
				}
				for i := 0; i < clients; i++ {
					if err, _ := results.Get(); err != nil {
						t.Fatalf("client error: %v", err)
					}
				}
				reader := c.NewClient("reader", replobj.WithReplyPolicy(replobj.All))
				for _, key := range keys {
					replies, err := reader.InvokeAll("hot", "get", []byte{key})
					if err != nil {
						t.Fatalf("InvokeAll(get %q): %v", key, err)
					}
					for node, rep := range replies {
						if rep.Err != "" {
							t.Errorf("%v: get %q: %s", node, key, rep.Err)
						} else if got := fromU64(rep.Result); got != want[key] {
							t.Errorf("%v: key %q = %d, want %d", node, key, got, want[key])
						}
					}
				}
				for i := 1; i < replicas; i++ {
					if d := replobj.FirstTraceDivergence(g.Trace(0), g.Trace(i)); d != nil {
						t.Errorf("trace divergence rank0 vs rank%d: %+v", i, d)
					}
				}
			})
			count := func(name string) uint64 { return specCounter(reg, "hot", name, replicas) }
			attempts, refreshes := count("attempts"), count("refreshes")
			t.Logf("attempts %d hits %d aborts %d refreshes %d reuses %d catch-ups %d skipped %d",
				attempts, count("hits"), count("aborts"), refreshes, count("fork_reuses"), count("catchups"), count("skipped"))
			if n := count("mismatches"); n != 0 {
				t.Errorf("%d speculative replies differed from the ordered ones", n)
			}
			if attempts == 0 || count("hits") == 0 {
				t.Errorf("%d attempts, %d hits: speculation never worked", attempts, count("hits"))
			}
			if refreshes+count("fork_reuses") != attempts {
				t.Errorf("%d refreshes + %d reuses != %d attempts", refreshes, count("fork_reuses"), attempts)
			}
			if count("catchups") == 0 {
				t.Error("contended keys produced no catch-up")
			}
			// Each pile-up leaves two forks dirty on the key; most runs still
			// find a fork as it stands.
			if refreshes*2 > attempts {
				t.Errorf("%d refreshes for %d attempts: forks are not being reused", refreshes, attempts)
			}
		})
		t.Run(string(kind)+"/baseline", func(t *testing.T) {
			const invokes = 24
			traces := make(map[bool]*replobj.ScheduleTrace)
			for _, speculative := range []bool{false, true} {
				rt := vtime.Virtual()
				reg := replobj.NewMetricsRegistry()
				c := replobj.NewCluster(rt, replobj.WithMetrics(reg))
				opts := append(groupOptsFor(kind, 1), replobj.WithSchedTrace(0), replobj.WithCheckpointEvery(8))
				if speculative {
					opts = append(opts, replobj.WithSpeculation())
				}
				g := kcounterGroup(t, c, "hot", 3, opts...)
				run(rt, c, func() {
					cl := c.NewClient("c0")
					for i := 0; i < invokes; i++ {
						if _, err := cl.Invoke("hot", "add", []byte{keys[i*i%len(keys)], 1}); err != nil {
							t.Fatalf("Invoke: %v", err)
						}
					}
				})
				traces[speculative] = g.Trace(0)
				if speculative {
					// One client, one request at a time: after the first restore a
					// request nearly always finds the fork where the last one left
					// it (not always: a late submit's catch-up may still hold it).
					attempts, refreshes := specCounter(reg, "hot", "attempts", 3), specCounter(reg, "hot", "refreshes", 3)
					if hits := specCounter(reg, "hot", "hits", 3); hits == 0 || refreshes*6 > attempts {
						t.Errorf("%d attempts, %d hits, %d refreshes over %d sequential requests", attempts, hits, refreshes, invokes)
					}
				}
			}
			if d := replobj.FirstTraceDivergence(traces[false], traces[true]); d != nil {
				t.Errorf("speculative run diverges from baseline: %+v", d)
			}
		})
	}
}

// TestSpeculationMismatchDiscardsForks breaks the handlers' contract on
// purpose: "bump" declares its key as its only class but also counts into a
// shared total and returns it. Two clients on two keys then run on two forks
// whose totals each miss the other client's requests, so released replies
// differ from the ordered ones. The committed run must not care — exact
// totals and equal digests on every replica — and every mismatch must cost
// the forks: they carry the stray writes forward, so none can be kept.
func TestSpeculationMismatchDiscardsForks(t *testing.T) {
	const (
		replicas = 3
		rounds   = 20
	)
	rt := vtime.Virtual()
	reg := replobj.NewMetricsRegistry()
	c := replobj.NewCluster(rt, replobj.WithMetrics(reg))
	g, err := c.NewGroup("stray", replicas,
		replobj.WithScheduler(replobj.CC),
		replobj.WithSpeculation(),
		replobj.WithSchedTrace(0),
		replobj.WithState(newKCounter))
	if err != nil {
		t.Fatal(err)
	}
	g.Register("bump", func(inv *replobj.Invocation) ([]byte, error) {
		st := inv.State().(*kcounter)
		if err := inv.Lock("total"); err != nil {
			return nil, err
		}
		defer func() { _ = inv.Unlock("total") }()
		inv.Compute(200 * time.Microsecond) // long enough for the two clients' runs to overlap
		st.Slots[string(inv.Args()[:1])]++
		st.Slots["total"]++ // outside the declared class
		return u64(st.Slots["total"]), nil
	})
	g.Register("total", func(inv *replobj.Invocation) ([]byte, error) {
		return u64(inv.State().(*kcounter).Slots["total"]), nil // classless
	})
	g.Start()
	run(rt, c, func() {
		results := vtime.NewMailbox[error](rt, "results")
		for ci := 0; ci < 2; ci++ {
			ci := ci
			rt.Go(fmt.Sprintf("client/c%d", ci), func() {
				cl := c.NewClient(fmt.Sprintf("c%d", ci))
				var err error
				for i := 0; i < rounds && err == nil; i++ {
					_, err = cl.Invoke("stray", "bump", []byte{byte('a' + ci)})
				}
				results.Put(err)
			})
		}
		for i := 0; i < 2; i++ {
			if err, _ := results.Get(); err != nil {
				t.Fatalf("client error: %v", err)
			}
		}
		replies, err := c.NewClient("reader", replobj.WithReplyPolicy(replobj.All)).InvokeAll("stray", "total", nil)
		if err != nil {
			t.Fatalf("InvokeAll(total): %v", err)
		}
		for node, rep := range replies {
			if got := fromU64(rep.Result); rep.Err != "" || got != 2*rounds {
				t.Errorf("%v: total = %d (%s), want %d", node, got, rep.Err, 2*rounds)
			}
		}
		for i := 1; i < replicas; i++ {
			if d := replobj.FirstTraceDivergence(g.Trace(0), g.Trace(i)); d != nil {
				t.Errorf("trace divergence rank0 vs rank%d: %+v", i, d)
			}
		}
	})
	mismatches, refreshes := specCounter(reg, "stray", "mismatches", replicas), specCounter(reg, "stray", "refreshes", replicas)
	if mismatches == 0 {
		t.Fatal("a handler writing outside its classes went unnoticed")
	}
	// Each mismatch empties the pool, so the next speculation restores.
	if refreshes < mismatches {
		t.Errorf("%d mismatches but only %d refreshes: forks survived a mismatch", mismatches, refreshes)
	}
}

// lockProbe is a counter whose Snapshot returns only once another goroutine
// has taken and released the runtime lock of the replica that owns the
// state — or, after two seconds, counts a stall: an image taken with the
// lock held stops that replica's dispatch, scheduler and receive path for as
// long as the copy takes.
type lockProbe struct {
	v              uint64
	owner          func() vtime.Runtime // the owning replica's runtime
	images, stalls *atomic.Int32
}

func (p *lockProbe) Snapshot() ([]byte, error) {
	rt := p.owner()
	done := make(chan struct{})
	go func() {
		rt.Lock()
		rt.Unlock()
		close(done)
	}()
	select {
	case <-done:
		p.images.Add(1)
	case <-time.After(2 * time.Second):
		p.stalls.Add(1)
	}
	return u64(p.v), nil
}

func (p *lockProbe) Restore(b []byte) error { p.v = fromU64(b); return nil }

// TestSpeculationImageOffRuntimeLock: a speculation that needs a fresh image
// of the state copies it with its replica's runtime lock released.
func TestSpeculationImageOffRuntimeLock(t *testing.T) {
	rt := vtime.Real()
	defer rt.Stop()
	c := replobj.NewCluster(rt, replobj.WithLatency(0))
	defer c.Close()
	var images, stalls, made atomic.Int32
	var g *replobj.Group
	// NewGroup builds one instance to learn the state's type, then Start
	// builds rank i's state (i+1)-th; later instances are speculation forks,
	// which are restored, never imaged.
	newProbe := func() any {
		rank := int(made.Add(1)) - 2
		return &lockProbe{images: &images, stalls: &stalls,
			owner: func() vtime.Runtime { return g.Replica(rank).Runtime() }}
	}
	g, err := c.NewGroup("img", 3, replobj.WithScheduler(replobj.SEQ), replobj.WithSpeculation(),
		replobj.WithState(newProbe))
	if err != nil {
		t.Fatal(err)
	}
	g.Register("add", func(inv *replobj.Invocation) ([]byte, error) {
		st := inv.State().(*lockProbe)
		st.v += uint64(inv.Args()[0])
		return u64(st.v), nil
	})
	g.Start()
	cl := c.NewClient("c0", replobj.WithInvocationTimeout(10*time.Second), replobj.WithReplyPolicy(replobj.All))
	replobj.Run(rt, func() {
		// A speculation images only when it runs before its request is
		// ordered, a race on the real clock: invoke on past 50 until one has.
		for i := 0; (i < 50 || images.Load() == 0) && i < 2000 && err == nil; i++ {
			_, err = cl.Invoke("img", "add", []byte{1})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := stalls.Load(); n != 0 {
		t.Errorf("%d of %d images were taken holding the runtime lock", n, n+images.Load())
	}
	if images.Load() == 0 {
		t.Error("no speculation took an image")
	}
}

// snapKV is the keyed counter with a serialization of its own that, like
// many, reuses its encoding buffer: the Snapshotter contract promises no
// concurrent calls, and no Snapshot while a Restore rewrites the state.
type snapKV struct {
	kcounter
	buf bytes.Buffer
}

func (s *snapKV) Snapshot() ([]byte, error) {
	s.buf.Reset()
	if err := gob.NewEncoder(&s.buf).Encode(s.Slots); err != nil {
		return nil, err
	}
	return bytes.Clone(s.buf.Bytes()), nil
}

func (s *snapKV) Restore(b []byte) error {
	s.Slots = nil
	return gob.NewDecoder(bytes.NewReader(b)).Decode(&s.Slots)
}

// TestSpeculationDuringSnapshotRejoin: a follower of a speculating group is
// cut off until the log has been truncated past it and rejoins by snapshot,
// while clients keep sending it their own copy of each request (it is rank
// 1, in every Majority client's copy set while the contact is the
// sequencer) and checkpoints come every four positions. Speculations then want images
// while the dispatch goroutine checkpoints and installs the snapshot off the
// runtime lock; the image gate keeps the two apart (under -race, a Snapshot
// beside a Restore or another Snapshot is reported). Effects stay exact and
// the rejoiner's digests equal its peers'. Real clock: the accesses must
// really overlap to be caught.
func TestSpeculationDuringSnapshotRejoin(t *testing.T) {
	const (
		replicas = 3
		clients  = 3
	)
	rt := vtime.Real()
	defer rt.Stop()
	net := transport.NewInproc(rt, transport.WithLatency(0))
	reg := replobj.NewMetricsRegistry()
	c := replobj.NewCluster(rt, replobj.WithNetwork(net), replobj.WithMetrics(reg))
	defer c.Close()
	g, err := c.NewGroup("kv", replicas,
		replobj.WithScheduler(replobj.SEQ),
		replobj.WithSpeculation(),
		replobj.WithSchedTrace(0),
		replobj.WithCheckpointEvery(4),
		replobj.WithFailureDetection(true),
		replobj.WithQuorum(),
		replobj.WithState(func() any {
			// Padded, so that an image takes a while.
			st := &snapKV{kcounter: kcounter{Slots: make(map[string]uint64)}}
			for i := 0; i < 512; i++ {
				st.Slots[fmt.Sprintf("pad%03d", i)] = uint64(i)
			}
			return st
		}))
	if err != nil {
		t.Fatal(err)
	}
	g.Register("add", func(inv *replobj.Invocation) ([]byte, error) {
		st := inv.State().(*snapKV)
		st.Slots[string(inv.Args()[:1])] += uint64(inv.Args()[1])
		return u64(st.Slots[string(inv.Args()[:1])]), nil
	})
	g.Register("get", func(inv *replobj.Invocation) ([]byte, error) {
		return u64(inv.State().(*snapKV).Slots[string(inv.Args()[:1])]), nil
	})
	g.Start()
	rejoiner := g.Members()[1]
	attempts := reg.Counter(`replobj_replica_spec_attempts_total{node="` + string(rejoiner) + `"}`)
	var restored uint64 // the rejoiner's attempts when it came back
	installed := reg.Counter(`replobj_gcs_snapshots_installed_total{node="` + string(rejoiner) + `"}`)
	total := make(map[byte]uint64)
	var errs []error
	replobj.Run(rt, func() {
		var stop atomic.Int64 // the clients' last send, as rt.Now()
		stop.Store(int64(rt.Now() + 10*time.Second))
		results := vtime.NewMailbox[map[byte]uint64](rt, "results")
		failures := vtime.NewMailbox[error](rt, "failures")
		for ci := 0; ci < clients; ci++ {
			name := fmt.Sprintf("c%d", ci)
			keys := []byte{byte('a' + ci), 'H'}
			rt.Go("client/"+name, func() {
				cl := c.NewClient(name,
					replobj.WithRetransmit(300*time.Millisecond),
					replobj.WithInvocationTimeout(30*time.Second))
				done := make(map[byte]uint64)
				for i := 0; int64(rt.Now()) < stop.Load(); i++ {
					key := keys[i%2]
					if _, err := cl.Invoke("kv", "add", []byte{key, 1}); err != nil {
						failures.Put(err)
						break
					}
					done[key]++
				}
				results.Put(done)
			})
		}
		rt.Sleep(200 * time.Millisecond)
		net.Crash(rejoiner)
		rt.Sleep(600 * time.Millisecond) // excluded, and the log truncated past it
		restored = attempts.Value()
		net.Restore(rejoiner)
		for installed.Value() == 0 && int64(rt.Now()) < stop.Load() {
			rt.Sleep(10 * time.Millisecond)
		}
		stop.Store(min(stop.Load(), int64(rt.Now()+300*time.Millisecond))) // direct copies on through the rejoin
		for i := 0; i < clients; i++ {
			done, _ := results.Get()
			for key, n := range done {
				total[key] += n
			}
		}
		for failures.Len() > 0 {
			err, _ := failures.Get()
			errs = append(errs, err)
		}
		reader := c.NewClient("reader", replobj.WithReplyPolicy(replobj.All), replobj.WithInvocationTimeout(30*time.Second))
		for key, n := range total {
			replies, err := reader.InvokeAll("kv", "get", []byte{key})
			if err != nil {
				errs = append(errs, err)
				continue
			}
			for node, rep := range replies {
				if got := fromU64(rep.Result); rep.Err != "" || got != n {
					errs = append(errs, fmt.Errorf("%v: key %q = %d (%s), want %d", node, key, got, rep.Err, n))
				}
			}
		}
	})
	for _, err := range errs {
		t.Error(err)
	}
	if installed.Value() == 0 {
		t.Fatal("the follower rejoined without a snapshot")
	}
	for i := 1; i < replicas; i++ {
		if d := replobj.FirstTraceDivergence(g.Trace(0), g.Trace(i)); d != nil {
			t.Errorf("trace divergence rank0 vs rank%d: %+v", i, d)
		}
	}
	if attempts.Value() == restored {
		t.Error("the rejoiner never speculated after it came back")
	}
	if n := specCounter(reg, "kv", "mismatches", replicas); n != 0 {
		t.Errorf("%d speculative replies differed from the ordered ones", n)
	}
}

// submitFor builds the raw wire Submit a client would send for a request —
// the injection vehicle for the duplicate-retransmission regressions.
func submitFor(group replobj.GroupID, id wire.InvocationID, method string, args []byte, replyTo replobj.NodeID) gcs.Submit {
	return gcs.Submit{
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
			if rep := msg.Payload.(replica.Reply); rep.Err != "" {
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
			rep := msg.Payload.(replica.Reply)
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
			rep := msg.Payload.(replica.Reply)
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

// TestOvertakenSubmitDrawsNoSecondReply is the regression for the spurious
// duplicate reply: a client of a speculating group sends its submit to
// every member, and a follower's copy regularly loses the race against the
// sequencer's Ordered copy of the same request. That late first arrival is
// not a retransmission — the execution answers it — and must not be
// replayed from the reply cache on top. A real retransmission afterwards
// still is. (In a group without direct copies a follower sees no first copy
// at all; gcs.TestPlainGroupReplaysFirstDirectArrival is the twin.)
func TestOvertakenSubmitDrawsNoSecondReply(t *testing.T) {
	rt := vtime.Virtual()
	// The injector's links to the two followers are slow, so the Ordered
	// copy (two default hops through the sequencer) gets there first.
	slow := func(from, to wire.NodeID) time.Duration {
		if from == "inj" && to != wire.ReplicaID("cnt", 0) {
			return 10 * time.Millisecond
		}
		return transport.DefaultLatency
	}
	net := transport.NewInproc(rt, transport.WithLatencyFunc(slow))
	reg := replobj.NewMetricsRegistry()
	c := replobj.NewCluster(rt, replobj.WithNetwork(net), replobj.WithMetrics(reg))
	counterGroup(t, c, "cnt", 3, replobj.WithSpeculation())
	run(rt, c, func() {
		inj := net.Endpoint("inj")
		replies := vtime.NewMailbox[replica.Reply](rt, "inj-replies")
		rt.Go("inj-recv", func() {
			for {
				msg, ok := inj.Recv()
				if !ok {
					return
				}
				replies.Put(msg.Payload.(replica.Reply))
			}
		})
		defer inj.Close()
		dupReplies := func() (n uint64) {
			for i := 0; i < 3; i++ {
				n += reg.Counter(fmt.Sprintf(`replobj_replica_duplicate_submit_replies_total{node="cnt/%d"}`, i)).Value()
			}
			return n
		}
		sub := submitFor("cnt", wire.InvocationID{Logical: "inj#1"}, "add", []byte{1}, "inj")
		members := c.Directory().Members("cnt")
		for _, m := range members {
			inj.Send(m, sub)
		}
		rt.Sleep(50 * time.Millisecond) // the slow copies have long arrived
		if n := replies.Len(); n != 3 {
			t.Errorf("%d replies to one submit, want 3 (one per member)", n)
		}
		if n := dupReplies(); n != 0 {
			t.Errorf("duplicate_submit_replies_total = %d after a submit that was only overtaken, want 0", n)
		}
		for replies.Len() > 0 {
			replies.Get()
		}
		// The client asks again: now every member replays its cached reply.
		for _, m := range members {
			inj.Send(m, sub)
		}
		rt.Sleep(50 * time.Millisecond)
		if n := replies.Len(); n != 3 {
			t.Errorf("%d replays of a retransmitted submit, want 3", n)
		}
		for replies.Len() > 0 {
			if rep, _ := replies.Get(); rep.Err != "" || fromU64(rep.Result) != 1 {
				t.Errorf("replayed reply = %v/%q, want the cached result 1", rep.Result, rep.Err)
			}
		}
		if n := dupReplies(); n != 3 {
			t.Errorf("duplicate_submit_replies_total = %d after a retransmission, want 3", n)
		}
	})
}
