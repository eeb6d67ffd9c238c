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
	"github.com/replobj/replobj/internal/transport"
	"github.com/replobj/replobj/internal/vtime"
)

// Checkpoints under concurrent load: declared conflict classes beside
// checkpoint cuts, and a follower that rejoins by snapshot while clients
// keep the group busy.

// kcounter is a keyed counter with per-key conflict classes: operations on
// distinct keys commute (conflict ratio 0), operations on a shared key
// conflict.
type kcounter struct{ Slots map[string]uint64 }

func newKCounter() any { return &kcounter{Slots: make(map[string]uint64)} }

// Snapshot/Restore (Snapshotter): kvState's encoding, slots in key order,
// for checkpoints.
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

// TestCheckpointDigestsAndAtMostOnce drives a checkpointing group of keyed
// counters for SEQ and CC with a mixed workload — each client alternating
// between a private key (CC runs those in parallel lanes) and a shared hot
// key all clients contend on — with a checkpoint cut every sixteen
// positions. The oracles are exact effect counts on every replica (nothing
// lost, nothing applied twice) and cross-replica schedule-digest equality.
func TestCheckpointDigestsAndAtMostOnce(t *testing.T) {
	for _, kind := range []replobj.SchedulerKind{replobj.SEQ, replobj.CC} {
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
				replobj.WithSchedTrace(0),
				replobj.WithCheckpointEvery(16))
			g := kcounterGroup(t, c, "kv", replicas, opts...)
			run(rt, c, func() {
				results := vtime.NewMailbox[error](rt, "results")
				for ci := 0; ci < clients; ci++ {
					name := fmt.Sprintf("c%d", ci)
					priv := []byte{byte('a' + ci), 1}
					hot := []byte{'H', 1}
					rt.Go("client/"+name, func() {
						cl := c.NewClient(name)
						var err error
						for i := 0; i < rounds && err == nil; i++ {
							if _, err = cl.Invoke("kv", "add", priv); err == nil {
								_, err = cl.Invoke("kv", "add", hot)
							}
							rt.Sleep(2 * time.Millisecond)
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
				check := func(key byte, want uint64) {
					replies, err := reader.InvokeAll("kv", "get", []byte{key})
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
				if groupCounter(reg, "replobj_replica_checkpoints_total", "kv", replicas) == 0 {
					t.Error("no replica took a checkpoint")
				}
				for i := 1; i < replicas; i++ {
					if d := replobj.FirstTraceDivergence(g.Trace(0), g.Trace(i)); d != nil {
						t.Errorf("trace divergence rank0 vs rank%d: %+v", i, d)
					}
				}
			})
		})
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

// TestSnapshotRejoinUnderLoad: a follower is cut off until the log has been
// truncated past it and rejoins by snapshot, while three clients keep the
// group busy and checkpoints come every four positions. Effects stay exact
// on every replica, the rejoiner included, and its digests equal its
// peers'. Real clock, so that the install really overlaps requests in
// flight (under -race, a Snapshot beside a Restore or another Snapshot is
// reported). When the follower installs no snapshot the test says how far
// it got: readmitted to the view or not, snapshots its peers sent it, and
// whether it delivered and answered again.
func TestSnapshotRejoinUnderLoad(t *testing.T) {
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
	installed := reg.Counter(`replobj_gcs_snapshots_installed_total{node="` + string(rejoiner) + `"}`)
	delivered := reg.Counter(`replobj_gcs_delivered_total{node="` + string(rejoiner) + `"}`)
	sent := func() uint64 { return groupCounter(reg, "replobj_gcs_snapshots_sent_total", "kv", replicas) }
	var sentAtRestore, deliveredAtRestore uint64
	answered := false // the rejoiner replied to a final read
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
		sentAtRestore, deliveredAtRestore = sent(), delivered.Value()
		net.Restore(rejoiner)
		for installed.Value() == 0 && int64(rt.Now()) < stop.Load() {
			rt.Sleep(10 * time.Millisecond)
		}
		stop.Store(min(stop.Load(), int64(rt.Now()+300*time.Millisecond))) // load on through the rejoin
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
			_, ok := replies[rejoiner]
			answered = answered || ok
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
		var how []string
		if v := g.Replica(0).Member().View(); !v.Contains(rejoiner) {
			how = append(how, fmt.Sprintf("was not readmitted to the view (rank 0 holds %v)", v))
		} else {
			how = append(how, "was readmitted to the view")
		}
		how = append(how, fmt.Sprintf("was sent %d snapshots by its peers", sent()-sentAtRestore))
		how = append(how, fmt.Sprintf("delivered %d positions", delivered.Value()-deliveredAtRestore))
		if answered {
			how = append(how, "answered the final reads")
		} else {
			how = append(how, "never answered a final read")
		}
		t.Fatalf("the follower installed no snapshot: after its restore it %s", strings.Join(how, ", "))
	}
	for i := 1; i < replicas; i++ {
		if d := replobj.FirstTraceDivergence(g.Trace(0), g.Trace(i)); d != nil {
			t.Errorf("trace divergence rank0 vs rank%d: %+v", i, d)
		}
	}
}
