package replobj_test

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"

	replobj "github.com/replobj/replobj"
	"github.com/replobj/replobj/internal/client"
	"github.com/replobj/replobj/internal/vtime"
)

// identityLog is the object state of TestLogicalThreadIdentity's group A:
// the order in which calls took mutex h.
type identityLog struct{ entries []string }

// identityDigests are the schedule-trace digests TestLogicalThreadIdentity
// reads on every replica of A and B, per kind and stream: "<count>/<digest>".
// They were recorded while a logical thread id was the text
// "<client>#<call>", and hold since it is the pair (client, call) folded into
// the digests as those same bytes: naming a thread by number changed no
// digest.
var identityDigests = map[replobj.SchedulerKind]map[string]string{
	replobj.SEQ: {
		"A:order": "8/665daa6174c8be37",
		"A:sched": "6/07471e542fa7dbc0",
		"B:order": "3/acac8ee83db108bc",
		"B:sched": "3/56b975e77652ddb2",
	},
	replobj.SL: {
		"A:order": "9/54791abaee8094e0",
		"A:sched": "6/07471e542fa7dbc0",
		"B:order": "4/c23ad9b773d38027",
		"B:sched": "3/56b975e77652ddb2",
	},
	replobj.SAT: {
		"A:mutex/cb": "2/0e5af1d1d84a0326",
		"A:mutex/h":  "4/d5568b311d0881a5",
		"A:mutex/m":  "4/4f4186a630ed18c5",
		"A:mutex/w":  "2/8651395becdf33b2",
		"A:order":    "9/54791abaee8094e0",
		"B:order":    "4/c23ad9b773d38027",
	},
	replobj.ADSAT: {
		"A:mutex/h": "4/d5568b311d0881a5",
		"A:mutex/m": "4/4f4186a630ed18c5",
		"A:mutex/w": "7/4b531d9714d6229a",
		"A:order":   "10/5256e4ff5b62851d",
		"B:order":   "4/c23ad9b773d38027",
	},
	replobj.MAT: {
		"A:mutex/h": "4/d5568b311d0881a5",
		"A:mutex/m": "4/4f4186a630ed18c5",
		"A:mutex/w": "7/4b531d9714d6229a",
		"A:order":   "10/5256e4ff5b62851d",
		"B:order":   "4/c23ad9b773d38027",
	},
	replobj.LSA: {
		"A:mutex/h": "4/d5568b311d0881a5",
		"A:mutex/m": "4/4f4186a630ed18c5",
		"A:mutex/w": "7/af5ac9569559d5c0",
		"A:order":   "15/d85f1f67ef6dcab4",
		"B:order":   "4/c23ad9b773d38027",
	},
	replobj.PDS: {
		"A:mutex/h":           "4/d5568b311d0881a5",
		"A:mutex/m":           "4/4f4186a630ed18c5",
		"A:mutex/pds/__queue": "20/2895ccde2a86c005",
		"A:mutex/w":           "7/4b531d9714d6229a",
		"A:order":             "9/a00780edae526662",
		"A:rounds":            "11/14c9f7e4cf649e50",
		"B:mutex/pds/__queue": "7/d95ea4b31cc33aa4",
		"B:order":             "3/acac8ee83db108bc",
		"B:rounds":            "2/f0e758675c7f549a",
	},
	replobj.PDS2: {
		"A:mutex/h":           "4/d5568b311d0881a5",
		"A:mutex/m":           "4/4f4186a630ed18c5",
		"A:mutex/pds/__queue": "20/2895ccde2a86c005",
		"A:mutex/w":           "7/4b531d9714d6229a",
		"A:order":             "9/a00780edae526662",
		"A:rounds":            "11/14c9f7e4cf649e50",
		"B:mutex/pds/__queue": "7/d95ea4b31cc33aa4",
		"B:order":             "3/acac8ee83db108bc",
		"B:rounds":            "2/f0e758675c7f549a",
	},
	replobj.CC: {
		"A:lane/0":   "6/ede328290a4d65c8",
		"A:lane/1":   "6/ede328290a4d65c8",
		"A:lane/2":   "6/ede328290a4d65c8",
		"A:lane/3":   "6/ede328290a4d65c8",
		"A:lane/4":   "6/ede328290a4d65c8",
		"A:lane/5":   "6/ede328290a4d65c8",
		"A:lane/6":   "6/ede328290a4d65c8",
		"A:lane/7":   "6/ede328290a4d65c8",
		"A:mutex/cb": "2/0e5af1d1d84a0326",
		"A:mutex/h":  "4/d5568b311d0881a5",
		"A:mutex/m":  "4/4f4186a630ed18c5",
		"A:mutex/w":  "2/8651395becdf33b2",
		"A:order":    "9/54791abaee8094e0",
		"B:lane/0":   "3/04b797d282b07a73",
		"B:lane/1":   "3/04b797d282b07a73",
		"B:lane/2":   "3/04b797d282b07a73",
		"B:lane/3":   "3/04b797d282b07a73",
		"B:lane/4":   "3/04b797d282b07a73",
		"B:lane/5":   "3/04b797d282b07a73",
		"B:lane/6":   "3/04b797d282b07a73",
		"B:lane/7":   "3/04b797d282b07a73",
		"B:order":    "4/c23ad9b773d38027",
	},
}

// TestLogicalThreadIdentity runs every scheduler kind over a nested call,
// a callback where the kind survives one, reentrant locks, an ordered wait
// timeout, and two calls of one client that overlap:
//
//   - every replica of a group reaches the same digest on every stream, and
//     the digests are the pinned ones (identityDigests);
//   - a client's call k+1, sent once call k timed out at the client while it
//     still holds mutex h on the replicas, is a thread of its own: it blocks
//     on h until call k lets go, where a thread named by the client alone
//     would re-enter h (or, arriving as a callback, overtake it).
func TestLogicalThreadIdentity(t *testing.T) {
	for _, kind := range replobj.Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			rt := vtime.Virtual()
			c := replobj.NewCluster(rt)
			opts := append(groupOptsFor(kind, 2), replobj.WithSchedTrace(0))
			a, err := c.NewGroup("A", 3, append(opts, replobj.WithState(func() any { return &identityLog{} }))...)
			if err != nil {
				t.Fatal(err)
			}
			b, err := c.NewGroup("B", 3, opts...)
			if err != nil {
				t.Fatal(err)
			}
			// SEQ and PDS run no callback (Table 1: not deadlock-free under
			// callbacks); SAT and CC run one, but give it no lock its
			// originator holds.
			callback := kind != replobj.SEQ && kind != replobj.PDS && kind != replobj.PDS2
			reenter := kind == replobj.SL || kind == replobj.ADSAT || kind == replobj.MAT || kind == replobj.LSA
			lockTwice := func(inv *replobj.Invocation, m string, body func() ([]byte, error)) ([]byte, error) {
				for range 2 {
					if err := inv.Lock(replobj.MutexID(m)); err != nil {
						return nil, err
					}
					defer func() { _ = inv.Unlock(replobj.MutexID(m)) }()
				}
				return body()
			}
			a.Register("entry", func(inv *replobj.Invocation) ([]byte, error) {
				return lockTwice(inv, "m", func() ([]byte, error) { return inv.Invoke("B", "bounce", inv.Args()) })
			})
			a.Register("cb", func(inv *replobj.Invocation) ([]byte, error) {
				m := "cb"
				if reenter {
					m = "m"
				}
				return lockTwice(inv, m, func() ([]byte, error) { return []byte("cb"), nil })
			})
			a.Register("timed", func(inv *replobj.Invocation) ([]byte, error) {
				return lockTwice(inv, "w", func() ([]byte, error) {
					timedOut, err := inv.Wait("w", "", 20*time.Millisecond)
					return []byte(fmt.Sprint(timedOut, err)), nil
				})
			})
			a.Register("hold", func(inv *replobj.Invocation) ([]byte, error) {
				st := inv.State().(*identityLog)
				return lockTwice(inv, "h", func() ([]byte, error) {
					st.entries = append(st.entries, "hold-in")
					inv.Compute(1500 * time.Millisecond)
					st.entries = append(st.entries, "hold-out")
					return nil, nil
				})
			})
			a.Register("probe", func(inv *replobj.Invocation) ([]byte, error) {
				st := inv.State().(*identityLog)
				return lockTwice(inv, "h", func() ([]byte, error) {
					st.entries = append(st.entries, "probe")
					return []byte(strings.Join(st.entries, ",")), nil
				})
			})
			a.Register("noop", func(*replobj.Invocation) ([]byte, error) { return nil, nil })
			b.Register("bounce", func(inv *replobj.Invocation) ([]byte, error) {
				if callback && inv.Args()[0] == 1 {
					return inv.Invoke("A", "cb", nil)
				}
				return []byte("bounced"), nil
			})
			b.Register("noop", func(*replobj.Invocation) ([]byte, error) { return nil, nil })
			a.Start()
			b.Start()
			run(rt, c, func() {
				cl := c.NewClient("c1")
				for _, arg := range []byte{0, 1} {
					if _, err := cl.Invoke("A", "entry", []byte{arg}); err != nil {
						t.Fatalf("entry(%d): %v", arg, err)
					}
				}
				if out, err := cl.Invoke("A", "timed", nil); err != nil {
					t.Fatalf("timed: %v", err)
				} else {
					t.Logf("timed wait: %s", out)
				}
				// Call k holds h for 1.5 s; its client gives up after 1 s and
				// sends call k+1, which needs h.
				c2 := c.NewClient("c2", replobj.WithInvocationTimeout(time.Second))
				if _, err := c2.Invoke("A", "hold", nil); !errors.Is(err, client.ErrTimeout) {
					t.Fatalf("hold: %v, want the client's timeout", err)
				}
				out, err := c2.Invoke("A", "probe", nil)
				if err != nil {
					t.Fatalf("probe: %v", err)
				}
				if got := string(out); got != "hold-in,hold-out,probe" {
					t.Errorf("probe saw %q: call k+1 did not wait for call k's mutex", got)
				}
				// Every replica has delivered and run everything before these.
				all := c.NewClient("all", replobj.WithReplyPolicy(replobj.All))
				for _, g := range []replobj.GroupID{"A", "B"} {
					if _, err := all.InvokeAll(g, "noop", nil); err != nil {
						t.Fatalf("%s.noop: %v", g, err)
					}
				}
				got := map[string]string{}
				for _, g := range []*replobj.Group{a, b} {
					var first map[string]string
					for rank := range 3 {
						ds := map[string]string{}
						for name, s := range g.Trace(rank).Snapshot() {
							ds[name] = fmt.Sprintf("%d/%016x", s.Count, s.Digest)
						}
						if first == nil {
							first = ds
						} else if !maps.Equal(first, ds) {
							t.Errorf("%s/%d digests %v, rank 0's %v", g.Members()[0], rank, ds, first)
						}
					}
					for name, d := range first {
						got[string(g.Members()[0])[:1]+":"+name] = d
					}
				}
				want := identityDigests[kind]
				if !maps.Equal(got, want) {
					var b strings.Builder
					for _, name := range slices.Sorted(maps.Keys(got)) {
						fmt.Fprintf(&b, "\t\t%q: %q,\n", name, got[name])
					}
					t.Errorf("digests differ from the pinned ones; read:\n%s", b.String())
				}
			})
		})
	}
}
